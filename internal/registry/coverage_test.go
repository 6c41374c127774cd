package registry

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cataloger"
	"repro/internal/nodestatus"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/soap"
)

// TestSOAPFindObjects exercises the FindObjectsRequest protocol across
// every wireable kind.
func TestSOAPFindObjects(t *testing.T) {
	reg := newRegistry(t)
	svc := rim.NewService("FindMe", "")
	svc.AddBinding("http://h.example/x")
	pkg := rim.NewRegistryPackage("FindPkg")
	link := rim.NewExternalLink("FindLink", "http://spec.example/")
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), svc, pkg, link); err != nil {
		t.Fatal(err)
	}
	for kind, want := range map[string]int{
		"Service":              1,
		"RegistryPackage":      1,
		"ExternalLink":         1,
		"User":                 1, // registryOperator
		"ClassificationScheme": 5,
		"ClassificationNode":   30, // seeded taxonomies (lower bound checked below)
		"AdhocQuery":           0,
		"Association":          0,
		"Organization":         0,
	} {
		resp, err := reg.doFind(&FindObjectsRequest{Kind: kind, NamePattern: "%"})
		if err != nil {
			t.Fatalf("doFind(%s): %v", kind, err)
		}
		got := len(resp.(*FindObjectsResponse).Objects)
		if kind == "ClassificationNode" {
			if got < want {
				t.Errorf("doFind(%s) = %d, want >= %d", kind, got, want)
			}
			continue
		}
		if got != want {
			t.Errorf("doFind(%s) = %d, want %d", kind, got, want)
		}
	}
	_, err := reg.doFind(&FindObjectsRequest{Kind: "Martian"})
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Code != "Client" {
		t.Fatalf("want client fault, got %v", err)
	}
}

// TestRunCollectorLoop drives the registry's collection loop through one
// periodic tick against a live NodeStatus deployment.
func TestRunCollectorLoop(t *testing.T) {
	clk := simclock.NewManual(t0)
	reg, err := New(Config{Clock: clk, CollectionPeriod: 25 * time.Second,
		Invoker: staticInvoker{}})
	if err != nil {
		t.Fatal(err)
	}
	ns := rim.NewService(nodestatus.ServiceName, "")
	ns.AddBinding("http://h1.sdsu.edu:8080/NodeStatus/NodeStatusService")
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), ns); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { reg.RunCollector(ctx); close(done) }()

	waitRows := func(n int) {
		for i := 0; i < 5000; i++ {
			if s := reg.Collector.FaultStats().Sweeps; s >= n {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("collector stuck before %d sweeps", n)
	}
	waitRows(1)
	for i := 0; i < 5000 && clk.PendingWaiters() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(25 * time.Second)
	waitRows(2)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("RunCollector did not stop")
	}
	if _, ok := reg.Store.NodeState().Get("h1.sdsu.edu"); !ok {
		t.Fatal("collector loop produced no row")
	}
}

// staticInvoker answers every NodeStatus invocation with a fixed sample.
type staticInvoker struct{}

func (staticInvoker) Invoke(uri string) (nodestatus.Response, error) {
	return nodestatus.Response{Host: rim.HostOfURI(uri), Load: 0.5, MemoryB: 1 << 30, SwapB: 1 << 30}, nil
}

// TestRegisterCustomCataloger verifies the extension hook reaches the
// repository path.
func TestRegisterCustomCataloger(t *testing.T) {
	reg := newRegistry(t)
	reg.RegisterCataloger(markerCataloger{})
	eo := rim.NewExtrinsicObject("thing", "application/x-marker")
	if err := reg.SubmitRepositoryItem(reg.AdminContext(), eo, []byte("data")); err != nil {
		t.Fatal(err)
	}
	got, _, err := reg.GetRepositoryItem(eo.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := got.SlotValue("marker"); !ok || v != "seen" {
		t.Fatalf("marker slot = %q, %v", v, ok)
	}
}

type markerCataloger struct{}

func (markerCataloger) Name() string { return "marker" }
func (markerCataloger) Accepts(mimeType string, _ []byte) bool {
	return mimeType == "application/x-marker"
}
func (markerCataloger) Catalog(eo *rim.ExtrinsicObject, _ []byte) error {
	eo.SetSlot("marker", "seen")
	return nil
}

var _ cataloger.Cataloger = markerCataloger{}
