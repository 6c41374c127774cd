// Package qm implements the registry's QueryManager interface — the QM
// half of the Registry Service (thesis §1.3.2.4, Table 1.7): object
// retrieval by id, browse/drill-down discovery, the AdhocQuery protocol in
// both SQL-92 and XML Filter Query syntaxes with iterative startIndex /
// maxResults parameters, and stored parameterized queries.
//
// Crucially, qm is where the load-balancing scheme hooks the discovery
// path: GetServiceBindings runs the service's bindings through the
// core.Balancer before returning access URIs, exactly where the modified
// ServiceDAO populates ServiceBindingDAO in Figures 3.5–3.6. The
// QueryManager is open to unauthenticated clients (§2.2.3).
package qm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/filterq"
	"repro/internal/flight"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/sqlq"
	"repro/internal/store"
)

// Query syntaxes accepted by SubmitAdhocQuery.
const (
	SyntaxSQL    = "SQL-92"
	SyntaxFilter = "FilterQuery"
)

// ErrUnknownSyntax is returned for unsupported query syntaxes.
var ErrUnknownSyntax = errors.New("qm: unknown query syntax")

// AdhocQueryRequest is the protocol request (§1.3.2.4: "AdhocQueryRequest
// contains: Standard SQL-92 query ..., XML Filter Query, and Iterative
// query parameters: startIndex, maxResults").
type AdhocQueryRequest struct {
	Syntax     string
	Query      string
	Params     map[string]sqlq.Value
	StartIndex int
	MaxResults int // <= 0 means unbounded
}

// AdhocQueryResponse carries the matched window plus the iterative
// parameters (§1.3.2.4: "objects matched by query, and Iterative query
// parameters: startIndex, totalResultsCount").
type AdhocQueryResponse struct {
	Columns           []string
	Rows              [][]sqlq.Value
	StartIndex        int
	TotalResultsCount int
}

// Manager is the QueryManager implementation.
type Manager struct {
	Store    *store.Store
	Balancer *core.Balancer
	Clock    simclock.Clock
	catalog  *Catalog
}

// New creates a query manager. balancer may be nil (stock behaviour);
// clock nil means real time.
func New(s *store.Store, balancer *core.Balancer, clock simclock.Clock) *Manager {
	if clock == nil {
		clock = simclock.Real{}
	}
	if balancer == nil {
		balancer = &core.Balancer{Table: s.NodeState(), Policy: core.PolicyStock}
	}
	return &Manager{Store: s, Balancer: balancer, Clock: clock, catalog: &Catalog{Store: s}}
}

// Catalog returns the SQL catalog over the registry.
func (m *Manager) Catalog() *Catalog { return m.catalog }

// GetRegistryObject retrieves one object by id.
func (m *Manager) GetRegistryObject(id string) (rim.Object, error) {
	return m.Store.Get(id)
}

// FindObjects returns objects of the given type whose name matches the
// LIKE pattern — the Web UI's search box behaviour (Figs. 3.53–3.56).
func (m *Manager) FindObjects(t rim.ObjectType, namePattern string) []rim.Object {
	if namePattern == "" {
		namePattern = "%"
	}
	return m.Store.FindByName(t, namePattern)
}

// FindAllMyObjects lists everything owned by the given user — the
// FindAllMyObjects search option (Fig. 3.41).
func (m *Manager) FindAllMyObjects(userID string) []rim.Object {
	return m.Store.ByOwner(userID)
}

// GetOrganizationByName resolves an organization by exact name.
func (m *Manager) GetOrganizationByName(name string) (*rim.Organization, error) {
	o, err := m.Store.FindOneByName(rim.TypeOrganization, name)
	if err != nil {
		return nil, err
	}
	org, ok := o.(*rim.Organization)
	if !ok {
		return nil, fmt.Errorf("qm: object named %q is not an organization", name)
	}
	return org, nil
}

// GetServiceByName resolves a service by exact name.
func (m *Manager) GetServiceByName(name string) (*rim.Service, error) {
	o, err := m.Store.FindOneByName(rim.TypeService, name)
	if err != nil {
		return nil, err
	}
	svc, ok := o.(*rim.Service)
	if !ok {
		return nil, fmt.Errorf("qm: object named %q is not a service", name)
	}
	return svc, nil
}

// OfferedServices returns the services an organization offers via
// OffersService associations, sorted by name.
func (m *Manager) OfferedServices(orgID string) []*rim.Service {
	var out []*rim.Service
	for _, a := range m.Store.AssociationsFrom(orgID) {
		if a.AssociationType != rim.AssocOffersService {
			continue
		}
		if o, err := m.Store.Get(a.TargetID); err == nil {
			if svc, ok := o.(*rim.Service); ok {
				out = append(out, svc)
			}
		}
	}
	sortServices(out)
	return out
}

func sortServices(ss []*rim.Service) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j-1].Name.String() > ss[j].Name.String(); j-- {
			ss[j-1], ss[j] = ss[j], ss[j-1]
		}
	}
}

// GetServiceBindings is the discovery call the thesis modifies: it loads
// the service's discovery view (id, description, access URIs — no object-
// graph clone), runs it through the balancer against the current NodeState
// table, and returns the access URIs in the arranged order together with
// the balancing decision.
//
//repolint:ctxprop-allow context-free compatibility wrapper for callers without a request context
func (m *Manager) GetServiceBindings(serviceID string) ([]string, core.Decision, error) {
	return m.bindings(context.Background(), serviceID, true)
}

// GetServiceBindingsByName is GetServiceBindings keyed by service name —
// the AccessRegistry API's access path (§4.6).
//
//repolint:ctxprop-allow context-free compatibility wrapper for callers without a request context
func (m *Manager) GetServiceBindingsByName(name string) ([]string, core.Decision, error) {
	return m.bindings(context.Background(), name, false)
}

// bindings is the discovery call in its two steps, ServiceViewCtx and
// ArrangeCtx, for the service with the given id (byID) or unique name.
func (m *Manager) bindings(ctx context.Context, key string, byID bool) ([]string, core.Decision, error) {
	view, err := m.ServiceViewCtx(ctx, key, byID)
	if err != nil {
		return nil, core.Decision{}, err
	}
	return m.ArrangeCtx(ctx, view)
}

// ServiceViewCtx is the first step of discovery: it loads the discovery
// view of the service with the given id (byID) or unique name, timing the
// load on a sampled request's flight record.
func (m *Manager) ServiceViewCtx(ctx context.Context, key string, byID bool) (store.DiscoveryView, error) {
	st := flight.TimerFrom(ctx)
	begin := st.Begin()
	var view store.DiscoveryView
	var err error
	if byID {
		view, err = m.Store.ServiceView(key)
	} else {
		view, err = m.Store.ServiceViewByName(key)
	}
	st.End(flight.StageView, begin)
	return view, err
}

// ArrangeCtx is the second step: it runs view through the balancer against
// the current NodeState table and returns the access URIs in the arranged
// order together with the balancing decision.
func (m *Manager) ArrangeCtx(ctx context.Context, view store.DiscoveryView) ([]string, core.Decision, error) {
	// A deadline that fired while the view loaded (or while the request
	// waited in the admission queue) stops the arrangement mid-flight;
	// under admission ctx.Err is a clock read, with no timer behind it.
	if err := ctx.Err(); err != nil {
		return nil, core.Decision{}, err
	}
	uris, dec := m.Balancer.ArrangeViewTimed(view, m.Clock.Now(), flight.TimerFrom(ctx))
	return uris, dec, nil
}

// SubmitAdhocQuery runs an ad-hoc query in either supported syntax and
// applies the iterative window.
func (m *Manager) SubmitAdhocQuery(req AdhocQueryRequest) (*AdhocQueryResponse, error) {
	var rs *sqlq.ResultSet
	var err error
	switch {
	case strings.EqualFold(req.Syntax, SyntaxSQL), req.Syntax == "":
		rs, err = sqlq.Exec(m.catalog, req.Query, req.Params)
	case strings.EqualFold(req.Syntax, SyntaxFilter):
		rs, err = filterq.Exec(m.catalog, req.Query)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownSyntax, req.Syntax)
	}
	if err != nil {
		return nil, err
	}
	resp := &AdhocQueryResponse{
		Columns:           rs.Columns,
		StartIndex:        req.StartIndex,
		TotalResultsCount: rs.Total,
	}
	rows := rs.Rows
	if req.StartIndex > 0 {
		if req.StartIndex >= len(rows) {
			rows = nil
		} else {
			rows = rows[req.StartIndex:]
		}
	}
	if req.MaxResults > 0 && len(rows) > req.MaxResults {
		rows = rows[:req.MaxResults]
	}
	resp.Rows = rows
	return resp, nil
}

// InvokeStoredQuery executes a stored parameterized query (Table 1.1) — an
// AdhocQuery object submitted through the LifeCycleManager like any other
// — by name with the given parameter bindings.
func (m *Manager) InvokeStoredQuery(name string, params map[string]sqlq.Value, startIndex, maxResults int) (*AdhocQueryResponse, error) {
	o, err := m.Store.FindOneByName(rim.TypeAdhocQuery, name)
	if err != nil {
		return nil, err
	}
	q, ok := o.(*rim.AdhocQuery)
	if !ok {
		return nil, fmt.Errorf("qm: stored object %q is not a query", name)
	}
	return m.SubmitAdhocQuery(AdhocQueryRequest{
		Syntax: q.QuerySyntax, Query: q.Query, Params: params,
		StartIndex: startIndex, MaxResults: maxResults,
	})
}

// FindByClassification returns the objects carrying an internal
// classification by the named scheme's node with the given code — the
// drill-down, category-based discovery of Table 1.1 ("Taxonomy browsing",
// "Classification of any metadata object").
func (m *Manager) FindByClassification(schemeName, code string) ([]rim.Object, error) {
	scheme, err := m.Store.FindOneByName(rim.TypeClassificationScheme, schemeName)
	if err != nil {
		return nil, err
	}
	// Resolve the node id for (scheme, code).
	var nodeID string
	for _, o := range m.Store.ByType(rim.TypeClassificationNode) {
		n, ok := o.(*rim.ClassificationNode)
		if !ok {
			continue
		}
		if n.ParentID == scheme.Base().ID && strings.EqualFold(n.Code, code) {
			nodeID = n.ID
			break
		}
	}
	if nodeID == "" {
		return nil, fmt.Errorf("qm: scheme %q has no node with code %q", schemeName, code)
	}
	var out []rim.Object
	for _, o := range m.Store.All() {
		for _, c := range o.Base().Classifications {
			if c.ClassificationNode == nodeID {
				out = append(out, o)
				break
			}
		}
	}
	return out, nil
}

// CollectionTargets returns the access URIs of the published NodeStatus
// service — the deployment list the nodestate collector polls (Fig. 3.7).
// A missing NodeStatus service yields an empty list, not an error: the
// administrator simply has not enabled load balancing yet.
func (m *Manager) CollectionTargets() []string {
	svc, err := m.GetServiceByName("NodeStatus")
	if err != nil {
		return nil
	}
	return svc.AccessURIs()
}

// Now exposes the manager's clock (used by protocol layers for audit
// stamps).
func (m *Manager) Now() time.Time { return m.Clock.Now() }
