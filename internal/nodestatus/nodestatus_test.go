package nodestatus

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/simclock"
)

var t0 = time.Date(2011, 4, 22, 10, 0, 0, 0, time.UTC)

func TestHandlerServesHostSample(t *testing.T) {
	clk := simclock.NewManual(t0)
	h := hostsim.NewHost(hostsim.Config{
		Name: "thermo.sdsu.edu", Cores: 2, TotalMemB: 4 << 30, TotalSwapB: 2 << 30, NetDelayMs: 3,
	}, t0)
	srv := httptest.NewServer(NewHandler(h, clk))
	defer srv.Close()

	inv := HTTPInvoker{Client: srv.Client()}
	resp, err := inv.Invoke(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Host != "thermo.sdsu.edu" || resp.MemoryB != 4<<30 || resp.SwapB != 2<<30 || resp.NetDelayMs != 3 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Timestamp == "" {
		t.Fatal("missing timestamp")
	}
	if _, err := time.Parse(time.RFC3339Nano, resp.Timestamp); err != nil {
		t.Fatalf("bad timestamp %q: %v", resp.Timestamp, err)
	}
	s := resp.Sample()
	if s.MemoryB != resp.MemoryB || s.Load != resp.Load {
		t.Fatal("Sample conversion mismatch")
	}
}

func TestHandlerReflectsLoadChanges(t *testing.T) {
	clk := simclock.NewManual(t0)
	h := hostsim.NewHost(hostsim.Config{Name: "x", Cores: 1, TotalMemB: 1 << 30}, t0)
	srv := httptest.NewServer(NewHandler(h, clk))
	defer srv.Close()
	inv := HTTPInvoker{Client: srv.Client()}

	before, err := inv.Invoke(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Submit(hostsim.Task{ID: "t", CPUSeconds: 600, MemB: 512 << 20}, t0); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	after, err := inv.Invoke(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if after.Load <= before.Load {
		t.Fatalf("load did not rise: %v -> %v", before.Load, after.Load)
	}
	if after.MemoryB != (1<<30)-(512<<20) {
		t.Fatalf("memory = %d", after.MemoryB)
	}
}

func TestHandlerDownHostFaults(t *testing.T) {
	clk := simclock.NewManual(t0)
	h := hostsim.NewHost(hostsim.Config{Name: "x", Cores: 1, TotalMemB: 1 << 30}, t0)
	h.SetDown(true)
	srv := httptest.NewServer(NewHandler(h, clk))
	defer srv.Close()
	if _, err := (HTTPInvoker{Client: srv.Client()}).Invoke(srv.URL); err == nil {
		t.Fatal("down host served a sample")
	}
}

func TestLocalInvoker(t *testing.T) {
	clk := simclock.NewManual(t0)
	cluster := hostsim.NewCluster()
	cluster.Add(hostsim.NewHost(hostsim.Config{Name: "exergy.sdsu.edu", Cores: 1, TotalMemB: 2 << 30}, t0))
	inv := LocalInvoker{Cluster: cluster, Clock: clk}

	resp, err := inv.Invoke("http://exergy.sdsu.edu:8080/NodeStatus/NodeStatusService")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Host != "exergy.sdsu.edu" || resp.MemoryB != 2<<30 {
		t.Fatalf("resp = %+v", resp)
	}
	if _, err := inv.Invoke("http://unknown.sdsu.edu/x"); err == nil {
		t.Fatal("unknown host accepted")
	}
	if _, err := inv.Invoke("::garbage::"); err == nil || !strings.Contains(err.Error(), "unparseable") {
		t.Fatalf("garbage uri: %v", err)
	}
}

func TestDeploymentClose(t *testing.T) {
	var d Deployment
	clk := simclock.NewManual(t0)
	h := hostsim.NewHost(hostsim.Config{Name: "x", Cores: 1, TotalMemB: 1 << 30}, t0)
	ts := httptest.NewServer(NewHandler(h, clk))
	defer ts.Close()
	d.AddServer(ts.Config, ts.URL)
	if len(d.URIs()) != 1 {
		t.Fatalf("uris = %v", d.URIs())
	}
	d.Close()
	if len(d.URIs()) != 1 {
		t.Fatal("Close should not clear recorded URIs")
	}
}

// TestInvokeContextCancelsInFlightPost: cancelling the context handed to
// InvokeContext tears down the post to a host that never answers, so a
// cancelled sweep gets its socket back at once, not after the client's
// Timeout.
func TestInvokeContextCancelsInFlightPost(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer srv.Close()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := HTTPInvoker{Client: srv.Client()}.InvokeContext(ctx, srv.URL)
		done <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("InvokeContext after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("InvokeContext is still blocked 2s after its context was cancelled")
	}
}

// TestDefaultClientReusesConnectionsAcrossSweeps: two sweeps over more
// hosts than http.DefaultTransport keeps idle connections for, in the same
// order each time, as the collector visits them. The second sweep finds
// every host's connection still open and dials none.
func TestDefaultClientReusesConnectionsAcrossSweeps(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs every 127.0.0.0/8 address routed to loopback")
	}
	const hosts = 128
	clk := simclock.NewManual(t0)
	h := hostsim.NewHost(hostsim.Config{Name: "x", Cores: 1, TotalMemB: 1 << 30}, t0)
	ln, err := net.Listen("tcp", "0.0.0.0:0")
	if err != nil {
		t.Fatal(err)
	}
	var dialed atomic.Int64
	srv := &http.Server{Handler: NewHandler(h, clk), ConnState: func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dialed.Add(1)
		}
	}}
	go srv.Serve(ln)
	defer srv.Close()
	defer defaultClient.CloseIdleConnections()

	port := ln.Addr().(*net.TCPAddr).Port
	sweep := func() int64 {
		before := dialed.Load()
		for i := 0; i < hosts; i++ {
			uri := fmt.Sprintf("http://127.0.%d.%d:%d/NodeStatus/NodeStatusService", 1+i/250, 1+i%250, port)
			if _, err := (HTTPInvoker{}).Invoke(uri); err != nil {
				t.Fatal(err)
			}
		}
		return dialed.Load() - before
	}
	if n := sweep(); n != hosts {
		t.Fatalf("first sweep opened %d connections, want %d", n, hosts)
	}
	if n := sweep(); n != 0 {
		t.Fatalf("second sweep opened %d connections, want 0", n)
	}
}
