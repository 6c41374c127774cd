package registry

import "repro/internal/flight"

// ServiceRow is one service-table row as the external edge test walks it.
type ServiceRow struct {
	Path  string
	Route flight.Route
	SOAP  bool
}

// ServiceRows lists the service table.
func (r *Registry) ServiceRows() []ServiceRow {
	var out []ServiceRow
	for _, s := range r.serviceRoutes() {
		out = append(out, ServiceRow{Path: s.path, Route: s.route, SOAP: s.isSOAP})
	}
	return out
}

// OperatorPaths lists the operator table's paths.
func (r *Registry) OperatorPaths() []string {
	var out []string
	for _, o := range r.operatorRoutes() {
		out = append(out, o.path)
	}
	return out
}

// EdgePatterns lists every pattern the frozen router serves.
func (r *Registry) EdgePatterns() []string {
	r.Handler()
	return r.edge.Load().Patterns()
}
