package registry_test

// The serving edge as a tested property rather than a linted pattern: with
// both admission classes saturated, every service route sheds — in its
// class's format, leaving one flight record on its own route — while every
// operator route still answers, and the frozen router serves exactly the
// two route tables. The client half checks what a shed looks like from
// outside: a typed SOAP fault through jaxr, a 503 with Retry-After over
// REST. Plus the one request-body cap, which holds with admission off.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/jaxr"
	"repro/internal/registry"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/soap"
)

var edgeEpoch = time.Date(2011, 4, 22, 11, 0, 0, 0, time.UTC)

func TestEdgeShedsServiceRoutesAndServesOperatorRoutes(t *testing.T) {
	clk := simclock.NewManual(edgeEpoch)
	one := admit.ClassLimits{MaxInFlight: 1, MaxQueue: -1}
	reg, err := registry.New(registry.Config{
		Clock:      clk,
		Policy:     core.PolicyFilter,
		DataDir:    t.TempDir(),
		ReplLeader: true,
		Pprof:      true,
		Admission:  &admit.Config{Discovery: one, LCM: one},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Durable.WAL().Close() })
	svc := rim.NewService("Adder", "")
	svc.AddBinding("http://h00.sdsu.edu:8080/Adder/addService")
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), svc); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)

	// The remote client logs in while the LCM class still has room.
	conn := jaxr.Connect(srv.URL, srv.Client())
	creds, _, err := conn.Register("shed", "pw", rim.PersonName{FirstName: "S"})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Login(creds); err != nil {
		t.Fatal(err)
	}

	for _, class := range []admit.Class{admit.ClassDiscovery, admit.ClassLCM} {
		if out, _ := reg.Admission.TryAdmit(class, clk.Now()); out != admit.Admitted {
			t.Fatalf("holding the %v slot: %v", class, out)
		}
	}

	// lastShed checks that the request just answered left exactly one
	// flight record, shed, on route.
	written := reg.Flight.Written()
	lastShed := func(what string, route flight.Route) {
		t.Helper()
		if n := reg.Flight.Written() - written; n != 1 {
			t.Errorf("%s left %d flight records, want 1", what, n)
		}
		written = reg.Flight.Written()
		if rec := reg.Flight.Snapshot(flight.Filter{Limit: 1})[0]; rec.Outcome != flight.OutcomeShed || rec.Route != route {
			t.Errorf("%s: flight record %v on %v, want shed on %v", what, rec.Outcome, rec.Route, route)
		}
	}

	// The pprof profile and trace handlers sample until the request's
	// context ends; an ended one lets every route answer at once.
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	serve := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		reg.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ended))
		return w
	}

	var tables []string
	for _, row := range reg.ServiceRows() {
		tables = append(tables, row.Path)
		ct, body := "application/json", `{"error":"overloaded","retryAfterSeconds":1}`
		if row.SOAP {
			ct, body = soap.ContentType, "<faultcode>"+admit.OverloadedFaultCode+"</faultcode>"
		}
		w := serve(row.Path)
		if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") != "1" ||
			w.Header().Get("Content-Type") != ct || !strings.Contains(w.Body.String(), body) {
			t.Errorf("service route %s while saturated: %d, Retry-After %q, %s %q; want 503 with a %s reject",
				row.Path, w.Code, w.Header().Get("Retry-After"), w.Header().Get("Content-Type"), w.Body, ct)
		}
		lastShed(row.Path, row.Route)
	}
	for _, path := range reg.OperatorPaths() {
		tables = append(tables, path)
		if w := serve(path); w.Code != http.StatusOK {
			t.Errorf("operator route %s answered %d while the edge sheds: %q", path, w.Code, w.Body)
		}
	}
	if n := reg.Flight.Written() - written; n != 0 {
		t.Errorf("operator routes left %d flight records, want none", n)
	}
	sort.Strings(tables)
	if got := reg.EdgePatterns(); !reflect.DeepEqual(got, tables) {
		t.Errorf("the router serves %v\nthe route tables hold %v", got, tables)
	}

	// What a client sees.
	wantOverloaded := func(what string, err error) {
		t.Helper()
		var f *soap.Fault
		if !errors.As(err, &f) || f.Code != admit.OverloadedFaultCode {
			t.Errorf("%s while saturated: %v, want a %s fault", what, err, admit.OverloadedFaultCode)
		}
	}
	_, err = conn.Submit(rim.NewOrganization("Late"))
	wantOverloaded("jaxr Submit", err)
	lastShed("jaxr Submit", flight.RouteSOAPRegistry)
	_, _, err = conn.ServiceBindings("Adder")
	wantOverloaded("jaxr ServiceBindings", err)
	lastShed("jaxr ServiceBindings", flight.RouteSOAPRegistry)

	resp, err := srv.Client().Get(srv.URL + "/registry/bindings?service=Adder")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" ||
		string(body) != `{"error":"overloaded","retryAfterSeconds":1}`+"\n" {
		t.Errorf("REST GET while saturated: %s, Retry-After %q, body %q", resp.Status, resp.Header.Get("Retry-After"), body)
	}
	lastShed("REST GET", flight.RouteBindings)
}

// TestSOAPBodyCapWithoutAdmission: a request body past soap.MaxBodyBytes is
// refused with a Client fault before it reaches the registry, on a registry
// without admission control too.
func TestSOAPBodyCapWithoutAdmission(t *testing.T) {
	reg, err := registry.New(registry.Config{Clock: simclock.NewManual(edgeEpoch), Policy: core.PolicyFilter})
	if err != nil {
		t.Fatal(err)
	}
	svc := rim.NewService("Adder", "")
	svc.AddBinding("http://h00.sdsu.edu:8080/Adder/addService")
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), svc); err != nil {
		t.Fatal(err)
	}
	env, err := soap.Marshal(&struct {
		XMLName  struct{}                     `xml:"RegistryRequest"`
		Bindings *registry.GetBindingsRequest `xml:"GetBindingsRequest"`
	}{Bindings: &registry.GetBindingsRequest{ServiceName: "Adder"}})
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		reg.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/soap/registry", bytes.NewReader(body)))
		return w
	}

	padded := append(append([]byte(nil), env...), bytes.Repeat([]byte(" "), soap.MaxBodyBytes)...)
	w := post(padded)
	var f *soap.Fault
	if err := soap.Unmarshal(w.Body.Bytes(), nil); !errors.As(err, &f) || f.Code != "Client" || w.Code != http.StatusBadRequest {
		t.Fatalf("%d-byte request: %d %v, want 400 with a Client fault", len(padded), w.Code, err)
	}
	if n := reg.RespCache.Hits.Value() + reg.RespCache.Misses.Value(); n != 0 {
		t.Fatalf("the refused request reached discovery (%d cache lookups)", n)
	}
	if w := post(env); w.Code != http.StatusOK {
		t.Fatalf("the same request unpadded: %d %q", w.Code, w.Body)
	}
}
