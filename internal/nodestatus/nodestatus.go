// Package nodestatus implements the NodeStatus Web Service of thesis §3.3:
// "dormant software that is invoked periodically" on every host that is to
// be load balanced, returning the host's CPU load and the physical and
// swap memory available. The administrator deploys it once per host and
// publishes its access URIs to the registry (Fig. 3.7); the registry's
// collector then invokes it on a fixed period to populate the NodeState
// table.
//
// The package provides both sides of the wire: a SOAP/HTTP handler that
// exposes a host's measurements, and HTTPInvoker, which the collector uses
// to call it over real sockets. Simulations bypass the network with
// hostsim.LocalInvoker, so the server links no simulator.
package nodestatus

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/constraint"
	"repro/internal/simclock"
	"repro/internal/soap"
)

// ServiceName is the well-known registry name of the NodeStatus service;
// the registry discovers collection targets by looking up this service's
// bindings, so deploying and publishing NodeStatus once load-balances all
// services on those hosts (§3.3).
const ServiceName = "NodeStatus"

// Request is the (empty) NodeStatus invocation payload.
type Request struct {
	XMLName struct{} `xml:"NodeStatusRequest"`
}

// Response carries one host measurement.
type Response struct {
	XMLName    struct{} `xml:"NodeStatusResponse"`
	Host       string   `xml:"host"`
	Load       float64  `xml:"load"`
	MemoryB    int64    `xml:"memory"`
	SwapB      int64    `xml:"swapmemory"`
	NetDelayMs float64  `xml:"netdelay"`
	Timestamp  string   `xml:"timestamp"` // RFC 3339
}

// Sample converts the response to a constraint.Sample.
func (r Response) Sample() constraint.Sample {
	return constraint.Sample{Load: r.Load, MemoryB: r.MemoryB, SwapB: r.SwapB, NetDelayMs: r.NetDelayMs}
}

// Sampler is the measurement source a NodeStatus server exposes;
// *hostsim.Host implements it.
type Sampler interface {
	Name() string
	Sample(now time.Time) (constraint.Sample, error)
}

// NewHandler serves NodeStatus for one sampler over SOAP/HTTP.
func NewHandler(s Sampler, clk simclock.Clock) http.Handler {
	if clk == nil {
		clk = simclock.Real{}
	}
	return soap.Endpoint(func(*Request) (interface{}, error) {
		now := clk.Now()
		sample, err := s.Sample(now)
		if err != nil {
			return nil, soap.ServerFault("node status unavailable: %v", err)
		}
		return &Response{
			Host:       s.Name(),
			Load:       sample.Load,
			MemoryB:    sample.MemoryB,
			SwapB:      sample.SwapB,
			NetDelayMs: sample.NetDelayMs,
			Timestamp:  now.UTC().Format(time.RFC3339Nano),
		}, nil
	})
}

// Invoker invokes the NodeStatus service behind an access URI.
type Invoker interface {
	Invoke(accessURI string) (Response, error)
}

// ContextInvoker is an Invoker whose invocations can be cancelled. The
// collector prefers it when enforcing per-invocation deadlines, so a timed
// out HTTP call releases its socket instead of leaking a goroutine for the
// life of the connection.
type ContextInvoker interface {
	Invoker
	InvokeContext(ctx context.Context, accessURI string) (Response, error)
}

// DefaultTimeout bounds NodeStatus HTTP invocations when the caller does
// not supply a client. A status probe answers in milliseconds; anything
// slower than this is indistinguishable from a hung host.
const DefaultTimeout = 10 * time.Second

// defaultClient backs HTTPInvoker when Client is nil. http.DefaultClient
// would mean no timeout at all — a single unresponsive host could pin a
// collector sweep slot forever. Its transport keeps one idle connection per
// host and no total cap: http.DefaultTransport keeps 100 and evicts the
// least recently used, and a sweep visits its hosts in the same order every
// period, so past 100 hosts no connection would survive until it is needed
// again and every sweep would dial every host.
var defaultClient = &http.Client{Timeout: DefaultTimeout, Transport: sweepTransport()}

// sweepTransport is http.DefaultTransport's configuration with a
// per-host idle pool in place of its total one.
func sweepTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // no total cap
	t.MaxIdleConnsPerHost = 1
	return t
}

// HTTPInvoker calls NodeStatus endpoints over real HTTP. A nil Client uses
// a shared client with DefaultTimeout (never the timeout-less
// http.DefaultClient).
type HTTPInvoker struct {
	Client *http.Client
}

// Invoke implements Invoker.
//
//repolint:ctxprop-allow context-free compatibility wrapper for callers without a request context
func (h HTTPInvoker) Invoke(accessURI string) (Response, error) {
	return h.InvokeContext(context.Background(), accessURI)
}

// InvokeContext implements ContextInvoker, threading the caller's deadline
// through the SOAP transport.
func (h HTTPInvoker) InvokeContext(ctx context.Context, accessURI string) (Response, error) {
	client := h.Client
	if client == nil {
		client = defaultClient
	}
	var resp Response
	if err := soap.PostContext(ctx, client, accessURI, &Request{}, &resp); err != nil {
		return Response{}, fmt.Errorf("nodestatus: invoke %s: %w", accessURI, err)
	}
	return resp, nil
}

// Deployment runs real NodeStatus HTTP servers for a set of simulated
// hosts, for the cmd binaries and end-to-end tests. Use Serve to start and
// Close to stop.
type Deployment struct {
	mu      sync.Mutex
	servers []*http.Server
	uris    []string
}

// URIs returns the access URIs of all served endpoints.
func (d *Deployment) URIs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.uris...)
}

// AddServer registers a started server and its public URI.
func (d *Deployment) AddServer(srv *http.Server, uri string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.servers = append(d.servers, srv)
	d.uris = append(d.uris, uri)
}

// Close shuts every server down.
func (d *Deployment) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.servers {
		s.Close()
	}
	d.servers = nil
}
