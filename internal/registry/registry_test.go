package registry

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/qm"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/soap"
	"repro/internal/store"
)

var t0 = time.Date(2011, 4, 22, 11, 0, 0, 0, time.UTC)

func newRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := New(Config{Clock: simclock.NewManual(t0), Policy: core.PolicyFilter})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// registerAndLogin performs the full wizard + challenge handshake over the
// SOAP auth endpoint and returns a session token.
func registerAndLogin(t *testing.T, client *http.Client, base, alias string) string {
	t.Helper()
	var reg RegisterResponse
	err := soap.Post(client, base+"/soap/auth", &authRequest{
		Register: &RegisterRequest{Alias: alias, Password: alias + "123", FirstName: "Test"},
	}, &reg)
	if err != nil {
		t.Fatal(err)
	}
	creds := &auth.Credentials{Alias: alias, CertPEM: []byte(reg.CertPEM), KeyPEM: []byte(reg.KeyPEM)}

	var ch ChallengeResponse
	if err := soap.Post(client, base+"/soap/auth", &authRequest{Challenge: &ChallengeRequest{Alias: alias}}, &ch); err != nil {
		t.Fatal(err)
	}
	nonce, err := base64.StdEncoding.DecodeString(ch.Nonce)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := creds.SignChallenge(nonce)
	if err != nil {
		t.Fatal(err)
	}
	var login LoginResponse
	err = soap.Post(client, base+"/soap/auth", &authRequest{
		Login: &LoginRequest{Alias: alias, Signature: base64.StdEncoding.EncodeToString(sig)},
	}, &login)
	if err != nil {
		t.Fatal(err)
	}
	if login.Token == "" || login.UserID == "" {
		t.Fatalf("login = %+v", login)
	}
	return login.Token
}

func TestEndToEndPublishDiscoverOverSOAP(t *testing.T) {
	reg := newRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	client := srv.Client()

	token := registerAndLogin(t, client, srv.URL, "gold")

	// Publish an organization and a constrained service (the §4.1 flow).
	submit := &SubmitObjectsRequest{
		Session: token,
		Objects: []WireObject{
			{Kind: "Organization", Name: "San Diego State University (SDSU)",
				Telephones: []WireTelephone{{CountryCode: "1", AreaCode: "619", Number: "594-5200", Type: "OfficePhone"}}},
			{Kind: "Service", Name: "ServiceAdder",
				Description: `adds <constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>`,
				Bindings: []WireBinding{
					{AccessURI: "http://exergy.sdsu.edu:8080/Adder/addService"},
					{AccessURI: "http://thermo.sdsu.edu:8080/Adder/addService"},
				}},
		},
	}
	var resp RegistryResponse
	if err := soap.Post(client, srv.URL+"/soap/registry", &soapRequest{Submit: submit}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "Success" || len(resp.IDs) != 2 {
		t.Fatalf("submit resp = %+v", resp)
	}

	// NodeState: thermo healthy, exergy overloaded.
	reg.Store.NodeState().Upsert(store.NodeState{Host: "thermo.sdsu.edu", Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30, Updated: t0})
	reg.Store.NodeState().Upsert(store.NodeState{Host: "exergy.sdsu.edu", Load: 3.0, MemoryB: 4 << 30, SwapB: 1 << 30, Updated: t0})

	// Discover over SOAP: only thermo comes back.
	var bindings GetBindingsResponse
	err := soap.Post(client, srv.URL+"/soap/registry", &soapRequest{
		Bindings: &GetBindingsRequest{ServiceName: "ServiceAdder"},
	}, &bindings)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings.URIs) != 1 || !strings.Contains(bindings.URIs[0], "thermo") {
		t.Fatalf("bindings = %+v", bindings)
	}
	if !bindings.Filtered || bindings.Eligible != 1 || bindings.Ineligible != 1 {
		t.Fatalf("decision = %+v", bindings)
	}
}

func TestSOAPSubmitRequiresSession(t *testing.T) {
	reg := newRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	var resp RegistryResponse
	err := soap.Post(srv.Client(), srv.URL+"/soap/registry", &soapRequest{
		Submit: &SubmitObjectsRequest{Objects: []WireObject{{Kind: "Organization", Name: "X"}}},
	}, &resp)
	if err == nil || !strings.Contains(err.Error(), "authentication required") {
		t.Fatalf("unauthenticated submit: %v", err)
	}
	// Bogus token is also rejected.
	err = soap.Post(srv.Client(), srv.URL+"/soap/registry", &soapRequest{
		Submit: &SubmitObjectsRequest{Session: "bogus", Objects: []WireObject{{Kind: "Organization", Name: "X"}}},
	}, &resp)
	if err == nil || !strings.Contains(err.Error(), "invalid session") {
		t.Fatalf("bogus session: %v", err)
	}
}

func TestSOAPLifecycleRoundTrip(t *testing.T) {
	reg := newRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	client := srv.Client()
	token := registerAndLogin(t, client, srv.URL, "gold")

	var resp RegistryResponse
	submit := &SubmitObjectsRequest{Session: token, Objects: []WireObject{{Kind: "Service", Name: "S",
		Bindings: []WireBinding{{AccessURI: "http://h.example/x"}}}}}
	if err := soap.Post(client, srv.URL+"/soap/registry", &soapRequest{Submit: submit}, &resp); err != nil {
		t.Fatal(err)
	}
	id := resp.IDs[0]

	// Approve, deprecate, undeprecate, update, remove.
	steps := []*soapRequest{
		{Approve: &ApproveObjectsRequest{ObjectRefRequest: ObjectRefRequest{Session: token, IDs: []string{id}}}},
		{Deprecate: &DeprecateObjectsRequest{ObjectRefRequest: ObjectRefRequest{Session: token, IDs: []string{id}}}},
		{Undeprecate: &UndeprecateObjectsRequest{ObjectRefRequest: ObjectRefRequest{Session: token, IDs: []string{id}}}},
	}
	for i, step := range steps {
		if err := soap.Post(client, srv.URL+"/soap/registry", step, &resp); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	update := &UpdateObjectsRequest{Session: token, Objects: []WireObject{{Kind: "Service", ID: id, Name: "S", Description: "edited",
		Bindings: []WireBinding{{AccessURI: "http://h.example/x"}}}}}
	if err := soap.Post(client, srv.URL+"/soap/registry", &soapRequest{Update: update}, &resp); err != nil {
		t.Fatal(err)
	}
	var got GetObjectResponse
	if err := soap.Post(client, srv.URL+"/soap/registry", &soapRequest{GetObject: &GetObjectRequest{ID: id}}, &got); err != nil {
		t.Fatal(err)
	}
	if got.Object.Description != "edited" || got.Object.Status != string(rim.StatusApproved) {
		t.Fatalf("after update = %+v", got.Object)
	}
	remove := &RemoveObjectsRequest{ObjectRefRequest: ObjectRefRequest{Session: token, IDs: []string{id}}}
	if err := soap.Post(client, srv.URL+"/soap/registry", &soapRequest{Remove: remove}, &resp); err != nil {
		t.Fatal(err)
	}
	if err := soap.Post(client, srv.URL+"/soap/registry", &soapRequest{GetObject: &GetObjectRequest{ID: id}}, &got); err == nil {
		t.Fatal("removed object still retrievable")
	}
}

func TestSOAPAdhocQuery(t *testing.T) {
	reg := newRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	client := srv.Client()
	token := registerAndLogin(t, client, srv.URL, "gold")

	var resp RegistryResponse
	submit := &SubmitObjectsRequest{Session: token, Objects: []WireObject{
		{Kind: "Organization", Name: "DemoOrg_A"},
		{Kind: "Organization", Name: "DemoOrg_B"},
		{Kind: "Organization", Name: "Other"},
	}}
	if err := soap.Post(client, srv.URL+"/soap/registry", &soapRequest{Submit: submit}, &resp); err != nil {
		t.Fatal(err)
	}
	var q AdhocQueryWireResponse
	err := soap.Post(client, srv.URL+"/soap/registry", &soapRequest{Query: &AdhocQueryWireRequest{
		Query:  "SELECT o.name FROM Organization o WHERE o.name LIKE $p ORDER BY o.name",
		Params: []WireParam{{Name: "p", Value: "DemoOrg_%"}},
	}}, &q)
	if err != nil {
		t.Fatal(err)
	}
	if q.TotalResultsCount != 2 || q.Rows[0].Cells[0].Value != "DemoOrg_A" {
		t.Fatalf("query resp = %+v", q)
	}
}

func TestHTTPGetBinding(t *testing.T) {
	reg := newRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	// Seed directly (localCall mode) as the operator.
	svc := rim.NewService("NodeStatus", "Service to monitor node status")
	svc.AddBinding("http://thermo.sdsu.edu:8080/NodeStatus/NodeStatusService")
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), svc); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return resp, buf[:n]
	}

	resp, body := get("/registry/find?kind=Service&name=Node%25")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "NodeStatus") {
		t.Fatalf("find: %d %s", resp.StatusCode, body)
	}
	resp, body = get("/registry/object?id=" + svc.ID)
	if resp.StatusCode != 200 || !strings.Contains(string(body), svc.ID) {
		t.Fatalf("object: %d %s", resp.StatusCode, body)
	}
	resp, body = get("/registry/bindings?service=NodeStatus")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "thermo") {
		t.Fatalf("bindings: %d %s", resp.StatusCode, body)
	}
	resp, body = get("/registry/query?q=" + strings.ReplaceAll("SELECT name FROM Service", " ", "+"))
	if resp.StatusCode != 200 || !strings.Contains(string(body), "NodeStatus") {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	reg.Store.NodeState().Upsert(store.NodeState{Host: "thermo.sdsu.edu", Load: 0.5, Updated: t0})
	resp, body = get("/registry/nodestate")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "thermo") {
		t.Fatalf("nodestate: %d %s", resp.StatusCode, body)
	}
	// Error paths.
	if resp, _ := get("/registry/object?id=urn:uuid:ghost"); resp.StatusCode != 404 {
		t.Fatalf("ghost object: %d", resp.StatusCode)
	}
	if resp, _ := get("/registry/find?kind=Martian"); resp.StatusCode != 400 {
		t.Fatalf("bad kind: %d", resp.StatusCode)
	}
	if resp, _ := get("/registry/bindings"); resp.StatusCode != 400 {
		t.Fatalf("missing service: %d", resp.StatusCode)
	}
	if resp, _ := get("/registry/query"); resp.StatusCode != 400 {
		t.Fatalf("missing q: %d", resp.StatusCode)
	}
}

// TestHTTPQueryPaging pins /registry/query's paging window: start and max
// page the rows, an absent parameter keeps its old meaning (from the first
// row, unbounded), and a value that is not a non-negative integer is a 400
// rather than a silent 0.
func TestHTTPQueryPaging(t *testing.T) {
	reg := newRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	for _, name := range []string{"A", "B", "C"} {
		if err := reg.LCM.SubmitObjects(reg.AdminContext(), rim.NewService(name, "")); err != nil {
			t.Fatal(err)
		}
	}
	base := "/registry/query?q=" + url.QueryEscape("SELECT name FROM Service ORDER BY name")
	for _, tc := range []struct {
		params string
		status int
		start  int
		rows   []string
	}{
		{"", 200, 0, []string{"A", "B", "C"}},
		{"&start=1", 200, 1, []string{"B", "C"}},
		{"&max=2", 200, 0, []string{"A", "B"}},
		{"&start=1&max=1", 200, 1, []string{"B"}},
		{"&start=0&max=0", 200, 0, []string{"A", "B", "C"}},
		{"&start=abc", 400, 0, nil},
		{"&start=-3", 400, 0, nil},
		{"&max=abc", 400, 0, nil},
		{"&max=-1", 400, 0, nil},
		{"&start=1&max=1.5", 400, 0, nil},
	} {
		resp, err := http.Get(srv.URL + base + tc.params)
		if err != nil {
			t.Fatal(err)
		}
		var page qm.AdhocQueryResponse
		if resp.StatusCode == 200 {
			err = json.NewDecoder(resp.Body).Decode(&page)
		}
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%q: %v", tc.params, err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%q: status %d, want %d", tc.params, resp.StatusCode, tc.status)
			continue
		}
		if tc.status != 200 {
			continue
		}
		var got []string
		for _, row := range page.Rows {
			got = append(got, fmt.Sprint(row[0]))
		}
		if page.StartIndex != tc.start || page.TotalResultsCount != 3 || !reflect.DeepEqual(got, tc.rows) {
			t.Errorf("%q: start %d total %d rows %v, want start %d total 3 rows %v",
				tc.params, page.StartIndex, page.TotalResultsCount, got, tc.start, tc.rows)
		}
	}
}

func TestWireRoundTripAllKinds(t *testing.T) {
	org := rim.NewOrganization("SDSU")
	org.Addresses = append(org.Addresses, rim.PostalAddress{StreetNumber: "5500", Street: "Campanile Drive", City: "San Diego", State: "CA", Country: "US", PostalCode: "92182", Type: "TYPE-US"})
	org.Emails = append(org.Emails, rim.EmailAddress{Address: "info@sdsu.edu", Type: "OfficeEmail"})
	org.Telephones = append(org.Telephones, rim.TelephoneNumber{CountryCode: "1", AreaCode: "619", Number: "594-5200", Type: "OfficePhone"})
	org.SetSlot("copyright", "2011")

	svc := rim.NewService("NodeStatus", "monitor")
	svc.AddBinding("http://thermo.sdsu.edu:8080/x")

	objs := []rim.Object{
		org,
		svc,
		rim.NewUser("gold", rim.PersonName{FirstName: "G", LastName: "User"}),
		rim.NewAssociation(rim.AssocOffersService, org.ID, svc.ID),
		rim.NewExternalLink("spec", "http://example.org/spec"),
		rim.NewAdhocQuery("q", "SQL-92", "SELECT 1"),
		rim.NewClassificationScheme("NAICS", true),
		rim.NewClassificationNode("urn:uuid:p", "111330", "Strawberries"),
		rim.NewRegistryPackage("pkg"),
	}
	for _, o := range objs {
		w, err := ToWire(o)
		if err != nil {
			t.Fatalf("ToWire(%T): %v", o, err)
		}
		back, err := w.FromWire()
		if err != nil {
			t.Fatalf("FromWire(%T): %v", o, err)
		}
		if back.Base().ID != o.Base().ID || back.Base().Name.String() != o.Base().Name.String() {
			t.Fatalf("%T round trip mismatch", o)
		}
	}
	// Org details survive.
	w, _ := ToWire(org)
	back, _ := w.FromWire()
	orgBack := back.(*rim.Organization)
	if len(orgBack.Addresses) != 1 || orgBack.Addresses[0].City != "San Diego" ||
		len(orgBack.Telephones) != 1 || orgBack.Telephones[0].Number != "594-5200" {
		t.Fatalf("org details lost: %+v", orgBack)
	}
	if v, ok := orgBack.SlotValue("copyright"); !ok || v != "2011" {
		t.Fatal("slot lost on wire")
	}
	// Service bindings survive with service id retargeted.
	ws, _ := ToWire(svc)
	backSvc, _ := ws.FromWire()
	sb := backSvc.(*rim.Service)
	if len(sb.Bindings) != 1 || sb.Bindings[0].ServiceID != sb.ID {
		t.Fatalf("bindings lost: %+v", sb.Bindings)
	}
}

func TestFromWireDefaultsAndErrors(t *testing.T) {
	w := &WireObject{Kind: "Organization", Name: "X"}
	o, err := w.FromWire()
	if err != nil {
		t.Fatal(err)
	}
	b := o.Base()
	if !rim.IsUUIDURN(b.ID) || b.LID != b.ID || b.Status != rim.StatusSubmitted || b.Version.VersionName != "1.1" {
		t.Fatalf("defaults = %+v", b)
	}
	if _, err := (&WireObject{Kind: "Martian"}).FromWire(); err == nil {
		t.Fatal("unknown kind decoded")
	}
}

func TestSessionContextAndAdmin(t *testing.T) {
	reg := newRegistry(t)
	if ctx, err := reg.SessionContext(""); err != nil || ctx.UserID != "" {
		t.Fatalf("guest ctx = %+v, %v", ctx, err)
	}
	if _, err := reg.SessionContext("bogus"); err == nil {
		t.Fatal("bogus token validated")
	}
	admin := reg.AdminContext()
	if admin.UserID == "" || len(admin.Roles) == 0 {
		t.Fatalf("admin ctx = %+v", admin)
	}
	ctx := reg.ContextFor(admin.UserID)
	found := false
	for _, role := range ctx.Roles {
		if role == "RegistryAdministrator" {
			found = true
		}
	}
	if !found {
		t.Fatal("operator lacks admin role")
	}
}

func TestNodeStateJSONShape(t *testing.T) {
	reg := newRegistry(t)
	reg.Store.NodeState().Upsert(store.NodeState{Host: "h", Load: 1.5, MemoryB: 2, SwapB: 3, Updated: t0})
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/registry/nodestate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []store.NodeState
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Load != 1.5 {
		t.Fatalf("rows = %+v", rows)
	}
}

// TestC1EbXMLFeatureRows is experiment C1: the four code-checkable rows of
// Table 1.1 that the thesis counts for ebXML over UDDI, each probed against
// the registry itself.
func TestC1EbXMLFeatureRows(t *testing.T) {
	reg := newRegistry(t)
	// Repository: the registry stores content, not only metadata.
	if err := reg.LCM.PutContent("wsdl-1", []byte("<definitions/>")); err != nil {
		t.Errorf("repository: %v", err)
	}
	if _, err := reg.Store.GetContent("wsdl-1"); err != nil {
		t.Errorf("repository: %v", err)
	}
	// SQL query.
	if _, err := reg.QM.SubmitAdhocQuery(qm.AdhocQueryRequest{Query: "SELECT host FROM NodeState"}); err != nil {
		t.Errorf("sql query: %v", err)
	}
	// Approval life cycle.
	svc := rim.NewService("S", "")
	svc.AddBinding("http://h.example/x")
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), svc); err != nil {
		t.Fatal(err)
	}
	if err := reg.LCM.ApproveObjects(reg.AdminContext(), svc.ID); err != nil {
		t.Errorf("approval life cycle: %v", err)
	}
	// Discovery that reads host state.
	reg.Store.NodeState().Upsert(store.NodeState{Host: "h.example", Load: 0.5, MemoryB: 1 << 30, SwapB: 1 << 30, Updated: t0})
	if _, _, err := reg.QM.GetServiceBindings(svc.ID); err != nil {
		t.Errorf("host-state discovery: %v", err)
	}
}
