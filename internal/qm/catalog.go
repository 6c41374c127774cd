package qm

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/rim"
	"repro/internal/sqlq"
	"repro/internal/store"
)

// Catalog exposes the registry's contents as the logical tables the
// AdhocQuery protocol queries — the view Derby provides under freebXML.
// Rows are materialized per query from the live store, so results always
// reflect current contents.
type Catalog struct {
	Store *store.Store
}

// Tables lists the queryable logical tables.
func (c *Catalog) Tables() []string {
	return []string{
		"RegistryObject", "Organization", "Service", "ServiceBinding",
		"Association", "User", "AuditableEvent", "ClassificationScheme",
		"ClassificationNode", "AdhocQuery", "NodeState",
	}
}

// Table implements sqlq.Catalog.
func (c *Catalog) Table(name string) (sqlq.Table, error) {
	switch strings.ToLower(name) {
	case "registryobject":
		return &lazyTable{cols: baseCols, build: c.registryObjectRows}, nil
	case "organization":
		return &lazyTable{cols: append(baseCols[:len(baseCols):len(baseCols)], "city", "state", "country", "parent"), build: c.organizationRows}, nil
	case "service":
		return &lazyTable{cols: append(baseCols[:len(baseCols):len(baseCols)], "bindings"), build: c.serviceRows}, nil
	case "servicebinding":
		return &lazyTable{cols: []string{"id", "serviceid", "accessuri", "host", "targetbinding", "description"}, build: c.bindingRows}, nil
	case "association":
		return &lazyTable{cols: []string{"id", "associationtype", "sourceid", "targetid", "owner"}, build: c.associationRows}, nil
	case "user":
		return &lazyTable{cols: []string{"id", "alias", "firstname", "lastname", "organization"}, build: c.userRows}, nil
	case "auditableevent":
		return &lazyTable{cols: []string{"id", "eventtype", "userid", "timestamp"}, build: c.eventRows}, nil
	case "classificationscheme":
		return &lazyTable{cols: append(baseCols[:len(baseCols):len(baseCols)], "isinternal", "nodetype"), build: c.schemeRows}, nil
	case "classificationnode":
		return &lazyTable{cols: append(baseCols[:len(baseCols):len(baseCols)], "parent", "code", "path"), build: c.nodeRows}, nil
	case "adhocquery":
		return &lazyTable{cols: append(baseCols[:len(baseCols):len(baseCols)], "querysyntax", "query"), build: c.queryRows}, nil
	case "nodestate":
		return &lazyTable{cols: []string{"host", "load", "memory", "swapmemory", "updated", "failures", "health"}, build: c.nodeStateRows}, nil
	default:
		return nil, fmt.Errorf("qm: unknown table %q", name)
	}
}

var baseCols = []string{"id", "lid", "name", "description", "objecttype", "status", "owner", "versionname"}

type lazyTable struct {
	cols  []string
	build func() []sqlq.Row
}

func (t *lazyTable) Columns() []string { return t.cols }
func (t *lazyTable) Rows() []sqlq.Row  { return t.build() }

// baseRow projects the shared RegistryObject columns.
func baseRow(o rim.Object) sqlq.Row {
	b := o.Base()
	return sqlq.Row{
		"id":          b.ID,
		"lid":         b.LID,
		"name":        nullable(b.Name.String()),
		"description": nullable(b.Description.String()),
		"objecttype":  b.ObjectType.Short(),
		"status":      string(b.Status),
		"owner":       nullable(b.Owner),
		"versionname": b.Version.VersionName,
	}
}

// nullable maps "" to SQL NULL.
func nullable(s string) sqlq.Value {
	if s == "" {
		return nil
	}
	return s
}

func (c *Catalog) registryObjectRows() []sqlq.Row {
	var rows []sqlq.Row
	for _, o := range c.Store.All() {
		rows = append(rows, baseRow(o))
	}
	return rows
}

func (c *Catalog) organizationRows() []sqlq.Row {
	var rows []sqlq.Row
	for _, o := range c.Store.ByType(rim.TypeOrganization) {
		org, ok := o.(*rim.Organization)
		if !ok {
			continue
		}
		r := baseRow(o)
		if len(org.Addresses) > 0 {
			r["city"] = nullable(org.Addresses[0].City)
			r["state"] = nullable(org.Addresses[0].State)
			r["country"] = nullable(org.Addresses[0].Country)
		} else {
			r["city"], r["state"], r["country"] = nil, nil, nil
		}
		r["parent"] = nullable(org.ParentID)
		rows = append(rows, r)
	}
	return rows
}

func (c *Catalog) serviceRows() []sqlq.Row {
	var rows []sqlq.Row
	for _, o := range c.Store.ByType(rim.TypeService) {
		svc, ok := o.(*rim.Service)
		if !ok {
			continue
		}
		r := baseRow(o)
		r["bindings"] = float64(len(svc.Bindings))
		rows = append(rows, r)
	}
	return rows
}

func (c *Catalog) bindingRows() []sqlq.Row {
	var rows []sqlq.Row
	for _, o := range c.Store.ByType(rim.TypeService) {
		svc, ok := o.(*rim.Service)
		if !ok {
			continue
		}
		for _, b := range svc.Bindings {
			rows = append(rows, sqlq.Row{
				"id":            b.ID,
				"serviceid":     svc.ID,
				"accessuri":     nullable(b.AccessURI),
				"host":          nullable(b.Host()),
				"targetbinding": nullable(b.TargetBindingID),
				"description":   nullable(b.Description.String()),
			})
		}
	}
	return rows
}

func (c *Catalog) associationRows() []sqlq.Row {
	var rows []sqlq.Row
	for _, o := range c.Store.ByType(rim.TypeAssociation) {
		a, ok := o.(*rim.Association)
		if !ok {
			continue
		}
		rows = append(rows, sqlq.Row{
			"id":              a.ID,
			"associationtype": string(a.AssociationType),
			"sourceid":        a.SourceID,
			"targetid":        a.TargetID,
			"owner":           nullable(a.Owner),
		})
	}
	return rows
}

func (c *Catalog) userRows() []sqlq.Row {
	var rows []sqlq.Row
	for _, o := range c.Store.ByType(rim.TypeUser) {
		u, ok := o.(*rim.User)
		if !ok {
			continue
		}
		rows = append(rows, sqlq.Row{
			"id":           u.ID,
			"alias":        u.Alias,
			"firstname":    nullable(u.PersonName.FirstName),
			"lastname":     nullable(u.PersonName.LastName),
			"organization": nullable(u.OrganizationID),
		})
	}
	return rows
}

func (c *Catalog) eventRows() []sqlq.Row {
	var rows []sqlq.Row
	for _, o := range c.Store.ByType(rim.TypeAuditableEvent) {
		e, ok := o.(*rim.AuditableEvent)
		if !ok {
			continue
		}
		rows = append(rows, sqlq.Row{
			"id":        e.ID,
			"eventtype": string(e.EventKind),
			"userid":    nullable(e.UserID),
			"timestamp": e.Timestamp.UTC().Format(time.RFC3339Nano),
		})
	}
	return rows
}

func (c *Catalog) schemeRows() []sqlq.Row {
	var rows []sqlq.Row
	for _, o := range c.Store.ByType(rim.TypeClassificationScheme) {
		s, ok := o.(*rim.ClassificationScheme)
		if !ok {
			continue
		}
		r := baseRow(o)
		r["isinternal"] = s.IsInternal
		r["nodetype"] = s.NodeType
		rows = append(rows, r)
	}
	return rows
}

func (c *Catalog) nodeRows() []sqlq.Row {
	var rows []sqlq.Row
	for _, o := range c.Store.ByType(rim.TypeClassificationNode) {
		n, ok := o.(*rim.ClassificationNode)
		if !ok {
			continue
		}
		r := baseRow(o)
		r["parent"] = n.ParentID
		r["code"] = n.Code
		r["path"] = nullable(n.Path)
		rows = append(rows, r)
	}
	return rows
}

func (c *Catalog) queryRows() []sqlq.Row {
	var rows []sqlq.Row
	for _, o := range c.Store.ByType(rim.TypeAdhocQuery) {
		q, ok := o.(*rim.AdhocQuery)
		if !ok {
			continue
		}
		r := baseRow(o)
		r["querysyntax"] = q.QuerySyntax
		r["query"] = q.Query
		rows = append(rows, r)
	}
	return rows
}

func (c *Catalog) nodeStateRows() []sqlq.Row {
	var rows []sqlq.Row
	for _, ns := range c.Store.NodeState().Snapshot().Rows() {
		rows = append(rows, sqlq.Row{
			"host":       ns.Host,
			"load":       ns.Load,
			"memory":     float64(ns.MemoryB),
			"swapmemory": float64(ns.SwapB),
			"updated":    ns.Updated.UTC().Format(time.RFC3339Nano),
			"failures":   float64(ns.Failures),
			"health":     ns.Health.String(),
		})
	}
	return rows
}
