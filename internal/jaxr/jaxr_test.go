package jaxr

import (
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/store"
)

var t0 = time.Date(2011, 4, 22, 11, 0, 0, 0, time.UTC)

func newRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	r, err := registry.New(registry.Config{Clock: simclock.NewManual(t0), Policy: core.PolicyFilter})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// connections returns both a local and a remote connection to the same
// registry, so every test exercises both transports.
func connections(t *testing.T) (reg *registry.Registry, conns map[string]*Connection, cleanup func()) {
	t.Helper()
	reg = newRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	local := ConnectLocal(reg)
	remote := Connect(srv.URL, srv.Client())
	return reg, map[string]*Connection{"local": local, "remote": remote}, srv.Close
}

func loginFresh(t *testing.T, c *Connection, alias string) {
	t.Helper()
	creds, _, err := c.Register(alias, "pw", rim.PersonName{FirstName: "T"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Login(creds); err != nil {
		t.Fatal(err)
	}
}

func TestPublishFindDeleteBothTransports(t *testing.T) {
	_, conns, cleanup := connections(t)
	defer cleanup()
	for name, c := range conns {
		t.Run(name, func(t *testing.T) {
			loginFresh(t, c, "user-"+name)
			if c.UserID() == "" {
				t.Fatal("no user id after login")
			}

			org := rim.NewOrganization("DemoOrganization-" + name)
			svc := rim.NewService("DemoService-"+name, "demo")
			svc.AddBinding("http://thermo.sdsu.edu:8080/Demo/" + name)
			assoc := rim.NewAssociation(rim.AssocOffersService, org.ID, svc.ID)

			ids, err := c.Submit(org, svc, assoc)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 3 || ids[0] != org.ID {
				t.Fatalf("ids = %v", ids)
			}

			got, err := c.GetObject(svc.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got.Base().Name.String() != svc.Name.String() {
				t.Fatalf("got %q", got.Base().Name.String())
			}

			found, err := c.Find("Organization", "DemoOrganization-"+name)
			if err != nil || len(found) != 1 {
				t.Fatalf("find: %v, %v", found, err)
			}

			// Delete the organization: cascade removes the service too.
			if err := c.Remove(org.ID); err != nil {
				t.Fatal(err)
			}
			if _, err := c.GetObject(svc.ID); err == nil {
				t.Fatal("cascade did not remove service")
			}
		})
	}
}

// TestFindEveryKindBothTransports: a local and a remote Find resolve kind
// names through the one table the server uses, so every kind returns the
// same objects on both, and an unknown kind is refused by both.
func TestFindEveryKindBothTransports(t *testing.T) {
	_, conns, cleanup := connections(t)
	defer cleanup()
	loginFresh(t, conns["local"], "kinds")
	org := rim.NewOrganization("KindOrg")
	svc := rim.NewService("KindService", "")
	svc.AddBinding("http://thermo.sdsu.edu:8080/Kind/kindService")
	if _, err := conns["local"].Submit(org, svc, rim.NewAssociation(rim.AssocOffersService, org.ID, svc.ID),
		rim.NewRegistryPackage("KindPackage"), rim.NewExternalLink("KindLink", "http://example.org/kind"),
		rim.NewAdhocQuery("KindQuery", "SQL-92", "SELECT s.id FROM Service s")); err != nil {
		t.Fatal(err)
	}
	ids := func(objs []rim.Object) []string {
		out := make([]string, len(objs))
		for i, o := range objs {
			out[i] = o.Base().ID
		}
		sort.Strings(out)
		return out
	}
	for _, kind := range []string{"Organization", "Service", "Association", "User", "ClassificationScheme",
		"ClassificationNode", "RegistryPackage", "ExternalLink", "AdhocQuery"} {
		local, err := conns["local"].Find(kind, "%")
		if err != nil {
			t.Errorf("local Find(%s): %v", kind, err)
			continue
		}
		remote, err := conns["remote"].Find(kind, "%")
		if err != nil {
			t.Errorf("remote Find(%s): %v", kind, err)
			continue
		}
		if len(local) == 0 || !reflect.DeepEqual(ids(local), ids(remote)) {
			t.Errorf("Find(%s): local %v, remote %v", kind, ids(local), ids(remote))
		}
	}
	for name, c := range conns {
		if _, err := c.Find("Spaceship", "%"); err == nil {
			t.Errorf("%s Find of an unknown kind succeeded", name)
		}
	}
}

func TestLifecycleBothTransports(t *testing.T) {
	_, conns, cleanup := connections(t)
	defer cleanup()
	for name, c := range conns {
		t.Run(name, func(t *testing.T) {
			loginFresh(t, c, "lcuser-"+name)
			svc := rim.NewService("LC-"+name, "")
			svc.AddBinding("http://h.example/" + name)
			if _, err := c.Submit(svc); err != nil {
				t.Fatal(err)
			}
			if err := c.Approve(svc.ID); err != nil {
				t.Fatal(err)
			}
			if err := c.Deprecate(svc.ID); err != nil {
				t.Fatal(err)
			}
			if err := c.Undeprecate(svc.ID); err != nil {
				t.Fatal(err)
			}
			got, err := c.GetObject(svc.ID)
			if err != nil || got.Base().Status != rim.StatusApproved {
				t.Fatalf("status = %v, %v", got.Base().Status, err)
			}
			// Update description.
			upd := got.(*rim.Service)
			upd.Description = rim.NewIString("edited")
			if _, err := c.Update(upd); err != nil {
				t.Fatal(err)
			}
			again, _ := c.GetObject(svc.ID)
			if again.Base().Description.String() != "edited" {
				t.Fatal("update lost")
			}
		})
	}
}

func TestAdhocQueryBothTransports(t *testing.T) {
	_, conns, cleanup := connections(t)
	defer cleanup()
	for name, c := range conns {
		t.Run(name, func(t *testing.T) {
			loginFresh(t, c, "quser-"+name)
			if _, err := c.Submit(rim.NewOrganization("QOrg-" + name)); err != nil {
				t.Fatal(err)
			}
			res, err := c.AdhocQuery("SELECT o.name, o.description FROM Organization o WHERE o.name = $n",
				map[string]string{"n": "QOrg-" + name})
			if err != nil {
				t.Fatal(err)
			}
			if res.Total != 1 || res.Rows[0][0] != "QOrg-"+name {
				t.Fatalf("result = %+v", res)
			}
			// Description is NULL and must be flagged as such.
			if !res.Nulls[0][1] {
				t.Fatal("null not marked")
			}
		})
	}
}

func TestServiceBindingsLoadBalancedBothTransports(t *testing.T) {
	reg, conns, cleanup := connections(t)
	defer cleanup()
	reg.Store.NodeState().Upsert(store.NodeState{Host: "thermo.sdsu.edu", Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30, Updated: t0})
	reg.Store.NodeState().Upsert(store.NodeState{Host: "exergy.sdsu.edu", Load: 3.0, MemoryB: 4 << 30, SwapB: 1 << 30, Updated: t0})

	setup := ConnectLocal(reg)
	loginFresh(t, setup, "publisher")
	svc := rim.NewService("BalancedAdder", `<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>`)
	svc.AddBinding("http://exergy.sdsu.edu:8080/Adder/addService")
	svc.AddBinding("http://thermo.sdsu.edu:8080/Adder/addService")
	if _, err := setup.Submit(svc); err != nil {
		t.Fatal(err)
	}

	for name, c := range conns {
		t.Run(name, func(t *testing.T) {
			uris, dec, err := c.ServiceBindings("BalancedAdder")
			if err != nil {
				t.Fatal(err)
			}
			if len(uris) != 1 || !strings.Contains(uris[0], "thermo") {
				t.Fatalf("uris = %v", uris)
			}
			if !dec.Filtered || dec.Eligible != 1 || dec.Ineligible != 1 || !dec.WindowOK {
				t.Fatalf("decision = %+v", dec)
			}
		})
	}
}

func TestBusinessManagersFacades(t *testing.T) {
	_, conns, cleanup := connections(t)
	defer cleanup()
	c := conns["local"]
	// Table 3.9: testGetBusinessLifeCycleManager / testGetBusinessQueryManager.
	blcm := c.BusinessLifeCycleManager()
	bqm := c.BusinessQueryManager()
	if blcm == nil || bqm == nil {
		t.Fatal("facades must be non-nil")
	}
	loginFresh(t, c, "facade")
	if _, err := blcm.SaveOrganizations(rim.NewOrganization("FacadeOrg")); err != nil {
		t.Fatal(err)
	}
	svc := rim.NewService("FacadeSvc", "")
	svc.AddBinding("http://h.example/f")
	ids, err := blcm.SaveServices(svc)
	if err != nil || len(ids) != 1 {
		t.Fatalf("SaveServices: %v, %v", ids, err)
	}
	orgs, err := bqm.FindOrganizations("Facade%")
	if err != nil || len(orgs) != 1 {
		t.Fatalf("FindOrganizations: %v, %v", orgs, err)
	}
	svcs, err := bqm.FindServices("Facade%")
	if err != nil || len(svcs) != 1 {
		t.Fatalf("FindServices: %v, %v", svcs, err)
	}
	if err := blcm.DeleteObjects(ids...); err != nil {
		t.Fatal(err)
	}
}

func TestUnauthenticatedWritesRejected(t *testing.T) {
	_, conns, cleanup := connections(t)
	defer cleanup()
	for name, c := range conns {
		t.Run(name, func(t *testing.T) {
			if _, err := c.Submit(rim.NewOrganization("X")); err == nil {
				t.Fatal("submit without login accepted")
			}
			if err := c.Remove("urn:uuid:x"); err == nil {
				t.Fatal("remove without login accepted")
			}
		})
	}
}

func TestLoginRejectsWrongKey(t *testing.T) {
	_, conns, cleanup := connections(t)
	defer cleanup()
	c := conns["remote"]
	creds, _, err := c.Register("victim", "pw", rim.PersonName{})
	if err != nil {
		t.Fatal(err)
	}
	_ = creds
	// A fresh, unregistered key pair under the same alias must fail.
	forged, _, err := ConnectLocal(newRegistry(t)).Register("victim", "pw", rim.PersonName{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Login(forged); err == nil {
		t.Fatal("forged login accepted")
	}
}

func TestLocalPolicyAccessor(t *testing.T) {
	reg, conns, cleanup := connections(t)
	defer cleanup()
	_ = reg
	if p, ok := conns["local"].LocalPolicy(); !ok || p != core.PolicyFilter {
		t.Fatalf("local policy = %v, %v", p, ok)
	}
	if _, ok := conns["remote"].LocalPolicy(); ok {
		t.Fatal("remote connection claims local policy")
	}
	if conns["local"].IsLocal() != true || conns["remote"].IsLocal() {
		t.Fatal("IsLocal wrong")
	}
}

func TestRelocateBothTransports(t *testing.T) {
	_, conns, cleanup := connections(t)
	defer cleanup()
	for name, c := range conns {
		t.Run(name, func(t *testing.T) {
			loginFresh(t, c, "reloc-"+name)
			svc := rim.NewService("Reloc-"+name, "")
			svc.AddBinding("http://h.example/" + name)
			if _, err := c.Submit(svc); err != nil {
				t.Fatal(err)
			}
			if err := c.Relocate("http://other-registry.example/omar", svc.ID); err != nil {
				t.Fatal(err)
			}
			got, err := c.GetObject(svc.ID)
			if err != nil || got.Base().Home != "http://other-registry.example/omar" {
				t.Fatalf("home = %q, %v", got.Base().Home, err)
			}
		})
	}
	// Unauthenticated relocate is rejected.
	_, conns2, cleanup2 := connections(t)
	defer cleanup2()
	if err := conns2["local"].Relocate("http://x/", "urn:uuid:y"); err == nil {
		t.Fatal("anonymous relocate accepted")
	}
}

// TestWritePathLocalRegisterSurvivesRestart: a localCall registration writes
// its User row through the log, as /soap/auth does, so the account's row is
// still there after the registry dies without a shutdown.
func TestWritePathLocalRegisterSurvivesRestart(t *testing.T) {
	boot := func(dir string) *registry.Registry {
		t.Helper()
		r, err := registry.New(registry.Config{Clock: simclock.NewManual(t0), DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	dir := t.TempDir()
	_, userID, err := ConnectLocal(boot(dir)).Register("gold", "pw", rim.PersonName{FirstName: "T"})
	if err != nil {
		t.Fatal(err)
	}
	// kill -9: the first registry is abandoned without Close.
	got, err := boot(dir).Store.Get(userID)
	if err != nil || got.Base().Name.String() != "gold" {
		t.Fatalf("the registered user's row after a restart: %v, %v", got, err)
	}
}
