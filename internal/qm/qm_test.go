package qm

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/sqlq"
	"repro/internal/store"
	"repro/internal/taxonomy"
)

var t0 = time.Date(2011, 4, 22, 11, 0, 0, 0, time.UTC)

// fixture builds a store with the thesis's running example: SDSU offering
// NodeStatus (2 hosts) and a constrained Adder service (2 hosts), plus
// NodeState rows making thermo eligible and exergy overloaded.
func fixture() (*Manager, *rim.Organization, *rim.Service, *rim.Service) {
	s := store.New()
	org := rim.NewOrganization("San Diego State University (SDSU)")
	ns := rim.NewService("NodeStatus", "Service to monitor node status")
	ns.AddBinding("http://thermo.sdsu.edu:8080/NodeStatus/NodeStatusService")
	ns.AddBinding("http://exergy.sdsu.edu:8080/NodeStatus/NodeStatusService")
	adder := rim.NewService("ServiceAdder", `adds <constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>`)
	adder.AddBinding("http://exergy.sdsu.edu:8080/Adder/addService")
	adder.AddBinding("http://thermo.sdsu.edu:8080/Adder/addService")
	a1 := rim.NewAssociation(rim.AssocOffersService, org.ID, ns.ID)
	a2 := rim.NewAssociation(rim.AssocOffersService, org.ID, adder.ID)
	for _, o := range []rim.Object{org, ns, adder, a1, a2} {
		o.Base().Owner = "urn:uuid:gold"
		if err := s.Put(o); err != nil {
			panic(err)
		}
	}
	s.NodeState().Upsert(store.NodeState{Host: "thermo.sdsu.edu", Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30, Updated: t0})
	s.NodeState().Upsert(store.NodeState{Host: "exergy.sdsu.edu", Load: 2.5, MemoryB: 4 << 30, SwapB: 1 << 30, Updated: t0})

	bal := &core.Balancer{Table: s.NodeState(), Policy: core.PolicyFilter}
	m := New(s, bal, simclock.NewManual(t0))
	return m, org, ns, adder
}

func TestGetRegistryObject(t *testing.T) {
	m, org, _, _ := fixture()
	got, err := m.GetRegistryObject(org.ID)
	if err != nil || got.Base().Name.String() != org.Name.String() {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := m.GetRegistryObject("urn:uuid:ghost"); err == nil {
		t.Fatal("ghost id found")
	}
}

func TestFindObjectsAndAllMyObjects(t *testing.T) {
	m, _, _, _ := fixture()
	svcs := m.FindObjects(rim.TypeService, "%")
	if len(svcs) != 2 {
		t.Fatalf("services = %d", len(svcs))
	}
	if got := m.FindObjects(rim.TypeService, "Node%"); len(got) != 1 {
		t.Fatalf("Node%% = %d", len(got))
	}
	if got := m.FindObjects(rim.TypeService, ""); len(got) != 2 {
		t.Fatalf("empty pattern = %d", len(got))
	}
	mine := m.FindAllMyObjects("urn:uuid:gold")
	if len(mine) != 5 {
		t.Fatalf("my objects = %d", len(mine))
	}
}

func TestByNameLookups(t *testing.T) {
	m, _, _, _ := fixture()
	org, err := m.GetOrganizationByName("San Diego State University (SDSU)")
	if err != nil {
		t.Fatal(err)
	}
	if org.Name.String() == "" {
		t.Fatal("empty org")
	}
	if _, err := m.GetOrganizationByName("NodeStatus"); err == nil {
		t.Fatal("service resolved as organization")
	}
	svc, err := m.GetServiceByName("nodestatus") // case-insensitive
	if err != nil || len(svc.Bindings) != 2 {
		t.Fatalf("service: %+v, %v", svc, err)
	}
}

func TestOfferedServices(t *testing.T) {
	m, org, _, _ := fixture()
	svcs := m.OfferedServices(org.ID)
	if len(svcs) != 2 || svcs[0].Name.String() != "NodeStatus" || svcs[1].Name.String() != "ServiceAdder" {
		names := []string{}
		for _, s := range svcs {
			names = append(names, s.Name.String())
		}
		t.Fatalf("offered = %v", names)
	}
}

func TestGetServiceBindingsAppliesBalancer(t *testing.T) {
	m, _, _, adder := fixture()
	uris, dec, err := m.GetServiceBindings(adder.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Only thermo satisfies load ls 1.0 under PolicyFilter.
	if len(uris) != 1 || !strings.Contains(uris[0], "thermo") {
		t.Fatalf("uris = %v", uris)
	}
	if dec.Eligible() != 1 || dec.Ineligible() != 1 {
		t.Fatalf("decision = %+v", dec)
	}
	// Unconstrained NodeStatus service returns stored order.
	uris2, _, err := m.GetServiceBindingsByName("NodeStatus")
	if err != nil || len(uris2) != 2 {
		t.Fatalf("nodestatus uris = %v, %v", uris2, err)
	}
	if _, _, err := m.GetServiceBindings("urn:uuid:ghost"); err == nil {
		t.Fatal("ghost service found")
	}
	if _, _, err := m.GetServiceBindingsByName("nope"); err == nil {
		t.Fatal("ghost name found")
	}
}

func TestSubmitAdhocQuerySQL(t *testing.T) {
	m, _, _, _ := fixture()
	resp, err := m.SubmitAdhocQuery(AdhocQueryRequest{
		Syntax: SyntaxSQL,
		Query:  "SELECT s.name FROM Service s WHERE s.name LIKE $p ORDER BY s.name",
		Params: map[string]sqlq.Value{"p": "%"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TotalResultsCount != 2 || len(resp.Rows) != 2 || resp.Rows[0][0] != "NodeStatus" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestSubmitAdhocQueryFilter(t *testing.T) {
	m, _, _, _ := fixture()
	resp, err := m.SubmitAdhocQuery(AdhocQueryRequest{
		Syntax: SyntaxFilter,
		Query:  `<FilterQuery target="Service"><Clause leftArgument="name" comparator="LIKE" rightArgument="Node%"/></FilterQuery>`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TotalResultsCount != 1 {
		t.Fatalf("total = %d", resp.TotalResultsCount)
	}
}

func TestSubmitAdhocQueryIterativeWindow(t *testing.T) {
	m, _, _, _ := fixture()
	resp, err := m.SubmitAdhocQuery(AdhocQueryRequest{
		Query:      "SELECT name FROM Service ORDER BY name",
		StartIndex: 1, MaxResults: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TotalResultsCount != 2 || len(resp.Rows) != 1 || resp.Rows[0][0] != "ServiceAdder" {
		t.Fatalf("windowed = %+v", resp)
	}
	// StartIndex beyond end.
	resp, _ = m.SubmitAdhocQuery(AdhocQueryRequest{Query: "SELECT name FROM Service", StartIndex: 99})
	if len(resp.Rows) != 0 || resp.TotalResultsCount != 2 {
		t.Fatalf("overshoot = %+v", resp)
	}
}

func TestSubmitAdhocQueryBadSyntax(t *testing.T) {
	m, _, _, _ := fixture()
	if _, err := m.SubmitAdhocQuery(AdhocQueryRequest{Syntax: "XQuery", Query: "x"}); err == nil {
		t.Fatal("unknown syntax accepted")
	}
	if _, err := m.SubmitAdhocQuery(AdhocQueryRequest{Query: "SELEC nope"}); err == nil {
		t.Fatal("bad sql accepted")
	}
}

func TestNodeStateQueryableViaSQL(t *testing.T) {
	m, _, _, _ := fixture()
	resp, err := m.SubmitAdhocQuery(AdhocQueryRequest{
		Query: "SELECT host FROM NodeState WHERE load < 1.0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0] != "thermo.sdsu.edu" {
		t.Fatalf("nodestate rows = %+v", resp.Rows)
	}
}

func TestStoredQueries(t *testing.T) {
	m, _, _, _ := fixture()
	// A stored query is an AdhocQuery object like the fixture's others; how
	// one gets there through the LCM, the log and a follower is
	// registry.TestStoredQuerySurvivesRestartAndReplicates.
	if err := m.Store.Put(rim.NewAdhocQuery("FindServicesByName", SyntaxSQL,
		"SELECT s.id, s.name FROM Service s WHERE s.name LIKE $name ORDER BY s.name")); err != nil {
		t.Fatal(err)
	}
	resp, err := m.InvokeStoredQuery("FindServicesByName", map[string]sqlq.Value{"name": "Service%"}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if resp.TotalResultsCount != 1 || resp.Rows[0][1] != "ServiceAdder" {
		t.Fatalf("stored query = %+v", resp)
	}
	if _, err := m.InvokeStoredQuery("Nope", nil, 0, 0); err == nil {
		t.Fatal("missing stored query invoked")
	}
}

func TestCollectionTargets(t *testing.T) {
	m, _, ns, _ := fixture()
	targets := m.CollectionTargets()
	if len(targets) != 2 || targets[0] != ns.Bindings[0].AccessURI {
		t.Fatalf("targets = %v", targets)
	}
	// Without a NodeStatus service: empty, no error.
	empty := New(store.New(), nil, simclock.NewManual(t0))
	if got := empty.CollectionTargets(); len(got) != 0 {
		t.Fatalf("empty registry targets = %v", got)
	}
}

func TestCatalogTablesListAndUnknown(t *testing.T) {
	m, _, _, _ := fixture()
	if len(m.Catalog().Tables()) < 10 {
		t.Fatalf("tables = %v", m.Catalog().Tables())
	}
	if _, err := m.Catalog().Table("Martian"); err == nil {
		t.Fatal("unknown table resolved")
	}
	// Every declared table is resolvable and queryable.
	for _, name := range m.Catalog().Tables() {
		if _, err := m.SubmitAdhocQuery(AdhocQueryRequest{Query: "SELECT * FROM " + name}); err != nil {
			t.Errorf("SELECT * FROM %s: %v", name, err)
		}
	}
}

func TestFindByClassification(t *testing.T) {
	s := store.New()
	if _, err := taxonomy.Seed(s); err != nil {
		t.Fatal(err)
	}
	m := New(s, nil, simclock.NewManual(t0))

	org := rim.NewOrganization("SDSU")
	cls, err := taxonomy.Classify(s, org.ID, taxonomy.SchemeNAICS, "61")
	if err != nil {
		t.Fatal(err)
	}
	org.Classifications = append(org.Classifications, cls)
	other := rim.NewOrganization("Acme Mining")
	clsOther, err := taxonomy.Classify(s, other.ID, taxonomy.SchemeNAICS, "21")
	if err != nil {
		t.Fatal(err)
	}
	other.Classifications = append(other.Classifications, clsOther)
	for _, o := range []rim.Object{org, other} {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}

	got, err := m.FindByClassification(taxonomy.SchemeNAICS, "61")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Base().Name.String() != "SDSU" {
		t.Fatalf("classified = %+v", got)
	}
	if _, err := m.FindByClassification(taxonomy.SchemeNAICS, "99"); err == nil {
		t.Fatal("ghost code accepted")
	}
	if _, err := m.FindByClassification("ghost-scheme", "61"); err == nil {
		t.Fatal("ghost scheme accepted")
	}
	// Case-insensitive code matching.
	if got, err := m.FindByClassification(taxonomy.SchemeISO3166, "us"); err != nil || len(got) != 0 {
		t.Fatalf("iso lookup: %v, %d", err, len(got))
	}
}

// TestCatalogRowShapes populates every row-producing table and verifies
// its columns come back fully through SQL (covering the per-type row
// builders of catalog.go).
func TestCatalogRowShapes(t *testing.T) {
	s := store.New()
	if _, err := taxonomy.Seed(s); err != nil {
		t.Fatal(err)
	}
	user := rim.NewUser("gold", rim.PersonName{FirstName: "G", LastName: "User"})
	ev := rim.NewAuditableEvent(rim.EventCreated, user.ID, t0, "urn:uuid:x")
	q := rim.NewAdhocQuery("stored", "SQL-92", "SELECT 1")
	for _, o := range []rim.Object{user, ev, q} {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	m := New(s, nil, simclock.NewManual(t0))

	for query, wantMin := range map[string]int{
		"SELECT alias, firstname, lastname FROM User WHERE alias = 'gold'":    1,
		"SELECT eventtype, userid, timestamp FROM AuditableEvent":             1,
		"SELECT name, isinternal, nodetype FROM ClassificationScheme":         5,
		"SELECT code, path, parent FROM ClassificationNode WHERE code = '61'": 1,
		"SELECT name, querysyntax, query FROM AdhocQuery":                     1,
	} {
		resp, err := m.SubmitAdhocQuery(AdhocQueryRequest{Query: query})
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if resp.TotalResultsCount < wantMin {
			t.Errorf("%s: total = %d, want >= %d", query, resp.TotalResultsCount, wantMin)
		}
	}
	if m.Now().IsZero() {
		t.Fatal("Now returned zero time")
	}
}
