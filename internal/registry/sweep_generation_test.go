package registry

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nodestatus"
	"repro/internal/rim"
	"repro/internal/simclock"
)

// slowInvoker answers host hNN after NN milliseconds, so a sweep's hosts
// answer one by one and discoveries running alongside land between them.
type slowInvoker struct{}

func (slowInvoker) Invoke(uri string) (nodestatus.Response, error) {
	host := rim.HostOfURI(uri)
	var n int
	fmt.Sscanf(host, "h%d.", &n)
	time.Sleep(time.Duration(n) * time.Millisecond)
	return nodestatus.Response{Host: host, Load: 0.2, MemoryB: 4 << 30, SwapB: 1 << 30}, nil
}

// TestSweepsPublishOneGenerationEach: K collector sweeps, a period apart as
// Run spaces them, with discoveries running throughout, install exactly K
// NodeState generations, whatever SnapshotMaxAge says. A discovery that
// published a half-swept table under a generation of its own would
// invalidate every cached answer and serve rows no sweep produced.
func TestSweepsPublishOneGenerationEach(t *testing.T) {
	const sweeps = 5
	hosts := make([]string, 8)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%02d.sdsu.edu", i)
	}
	for _, maxAge := range []time.Duration{0, time.Second} {
		t.Run(maxAge.String(), func(t *testing.T) {
			clk := simclock.NewManual(t0)
			reg, err := New(Config{Clock: clk, Policy: core.PolicyFilter, Invoker: slowInvoker{}, SnapshotMaxAge: maxAge})
			if err != nil {
				t.Fatal(err)
			}
			ns := rim.NewService("NodeStatus", "")
			for _, h := range hosts {
				ns.AddBinding("http://" + h + ":8080/NodeStatus/nodeStatus")
			}
			if err := reg.LCM.SubmitObjects(reg.AdminContext(), ns); err != nil {
				t.Fatal(err)
			}
			seedWorker(t, reg, hosts...)
			srv := httptest.NewServer(reg.Handler())
			defer srv.Close()
			reg.Collector.CollectOnce()
			before := scrapeMetrics(t, srv)

			// One reader through the HTTP edge (response cache and all),
			// one through the query manager.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			h := reg.Handler()
			readers := []func(){
				func() {
					h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/registry/bindings?service=Worker", nil))
				},
				func() { reg.QM.GetServiceBindingsByName("Worker") },
			}
			for _, read := range readers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
							read()
						}
					}
				}()
			}
			for k := 0; k < sweeps; k++ {
				clk.Advance(reg.Collector.Period())
				reg.Collector.CollectOnce()
			}
			close(stop)
			wg.Wait()

			after := scrapeMetrics(t, srv)
			delta := func(name string) float64 {
				a, _ := after.Value(name, nil)
				b, _ := before.Value(name, nil)
				return a - b
			}
			if got := delta("registry_collector_sweeps_total"); got != sweeps {
				t.Fatalf("sweeps = %v, want %d", got, sweeps)
			}
			if got := delta("registry_nodestate_snapshot_generation"); got != sweeps {
				t.Fatalf("%d sweeps installed %v generations, want one each", sweeps, got)
			}
		})
	}
}
