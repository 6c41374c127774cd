package hostsim

import (
	"fmt"
	"time"

	"repro/internal/nodestatus"
	"repro/internal/rim"
	"repro/internal/simclock"
)

// LocalInvoker resolves the hostname of an access URI directly against a
// simulated cluster, skipping HTTP — freebXML's localCall mode (thesis
// §2.2.1). It lets experiments poll hundreds of hosts per simulated
// second. It lives beside the simulator, not in nodestatus, so the
// registry server, which imports nodestatus, links no simulator.
type LocalInvoker struct {
	Cluster *Cluster
	Clock   simclock.Clock
}

// Invoke implements nodestatus.Invoker.
func (l LocalInvoker) Invoke(accessURI string) (nodestatus.Response, error) {
	host := rim.HostOfURI(accessURI)
	if host == "" {
		return nodestatus.Response{}, fmt.Errorf("hostsim: unparseable access uri %q", accessURI)
	}
	h := l.Cluster.Host(host)
	if h == nil {
		return nodestatus.Response{}, fmt.Errorf("hostsim: unknown host %q", host)
	}
	now := l.Clock.Now()
	sample, err := h.Sample(now)
	if err != nil {
		return nodestatus.Response{}, err
	}
	return nodestatus.Response{
		Host:       host,
		Load:       sample.Load,
		MemoryB:    sample.MemoryB,
		SwapB:      sample.SwapB,
		NetDelayMs: sample.NetDelayMs,
		Timestamp:  now.UTC().Format(time.RFC3339Nano),
	}, nil
}
