package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rim"
	"repro/internal/soap"
)

// statusListener is the bench's stand-in for every host's NodeStatus Web
// Service. It listens once on all loopback addresses and answers by Host
// header with that host's static sample, so the collectors in the child
// processes sweep real sockets and the oracle still knows every row.
type statusListener struct {
	srv    *http.Server
	port   int
	done   chan struct{}                     // closed when Serve returns
	bodies atomic.Pointer[map[string][]byte] // host → prepared envelope

	mu    sync.Mutex
	calls []statusCall // guarded by mu
}

// statusCall is one NodeStatus invocation seen by the listener.
type statusCall struct{ in, out time.Time }

// sweepGap separates two sweeps of one collector (period 1 s); calls
// closer than this belong to the same burst.
const sweepGap = 200 * time.Millisecond

// startStatusListener binds the port; answer must follow once the cluster
// (whose URIs carry that port) has been generated.
func startStatusListener() (*statusListener, error) {
	ln, err := net.Listen("tcp", "0.0.0.0:0")
	if err != nil {
		return nil, fmt.Errorf("bench: NodeStatus listener: %w", err)
	}
	l := &statusListener{port: ln.Addr().(*net.TCPAddr).Port, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/NodeStatus/NodeStatusService", func(w http.ResponseWriter, r *http.Request) {
		in := clk.Now()
		io.Copy(io.Discard, r.Body) // the request envelope is empty; draining keeps the connection reusable
		var body []byte
		if bodies := l.bodies.Load(); bodies != nil {
			body = (*bodies)[rim.HostOfURI("http://"+r.Host)]
		}
		if body == nil {
			http.Error(w, "unknown NodeStatus host "+r.Host, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", soap.ContentType)
		w.Write(body)
		out := clk.Now()
		l.mu.Lock()
		l.calls = append(l.calls, statusCall{in, out})
		l.mu.Unlock()
	})
	l.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		l.srv.Serve(ln) // always ErrServerClosed after close
		close(l.done)
	}()
	return l, nil
}

// answer makes the listener serve c's samples.
func (l *statusListener) answer(c *cluster) error {
	bodies := make(map[string][]byte, len(c.hosts))
	for i, h := range c.hosts {
		resp := c.response(i)
		env, err := soap.Marshal(&resp)
		if err != nil {
			return err
		}
		bodies[h] = env
	}
	l.bodies.Store(&bodies)
	return nil
}

func (l *statusListener) close() {
	l.srv.Close()
	<-l.done
}

// mark returns a cursor; sweepsSince reports only calls after it.
func (l *statusListener) mark() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.calls)
}

// sweepsSince groups the calls after mark into bursts and returns each
// burst's duration in nanoseconds: first request in to last response out.
func (l *statusListener) sweepsSince(mark int) []int64 {
	l.mu.Lock()
	calls := append([]statusCall(nil), l.calls[mark:]...)
	l.mu.Unlock()
	return burstDurations(calls)
}

func burstDurations(calls []statusCall) []int64 {
	if len(calls) == 0 {
		return nil
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].in.Before(calls[j].in) })
	var out []int64
	first, last, prev := calls[0].in, calls[0].out, calls[0].in
	for _, c := range calls[1:] {
		if c.in.Sub(prev) > sweepGap {
			out = append(out, int64(last.Sub(first)))
			first, last = c.in, c.out
		}
		if c.out.After(last) {
			last = c.out
		}
		prev = c.in
	}
	return append(out, int64(last.Sub(first)))
}
