package admit

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
	"repro/internal/soap"
)

// RejectFormat selects the preserialized body a shed request receives:
// the REST surface speaks JSON, the SOAP surface gets a typed fault.
type RejectFormat uint8

const (
	// RejectJSON answers 503 with a small JSON error document.
	RejectJSON RejectFormat = iota
	// RejectSOAP answers 503 with a typed Server.Overloaded SOAP fault.
	RejectSOAP
)

// OverloadedFaultCode is the faultcode of the typed SOAP fault shed
// requests receive. Clients match on it to distinguish "back off and
// retry" from a genuine server error.
const OverloadedFaultCode = "Server.Overloaded"

// OverloadedFault builds the typed SOAP fault for a shed request.
func OverloadedFault(retryAfter time.Duration) *soap.Fault {
	return &soap.Fault{
		Code:   OverloadedFaultCode,
		String: "registry overloaded; retry after " + strconv.FormatInt(retryAfterSeconds(retryAfter), 10) + "s",
		Detail: "admission control shed this request before execution",
	}
}

// retryAfterSeconds rounds the advisory backoff up to whole seconds,
// the resolution of the Retry-After header.
func retryAfterSeconds(d time.Duration) int64 {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// buildRejects preserializes the shed responses and headers once so the
// reject path allocates nothing per request.
func (c *Controller) buildRejects() {
	secs := strconv.FormatInt(retryAfterSeconds(c.cfg.RetryAfter), 10)
	c.retryAfterHeader = []string{secs}
	c.jsonContentType = []string{"application/json"}
	c.soapContentType = []string{soap.ContentType}
	c.rejectJSON = []byte(`{"error":"overloaded","retryAfterSeconds":` + secs + `}` + "\n")
	env, err := soap.Marshal(OverloadedFault(c.cfg.RetryAfter))
	if err != nil {
		// Marshal of a static struct cannot fail; fall back to the
		// JSON body rather than panic in a constructor.
		env = c.rejectJSON
	}
	c.rejectSOAP = env
}

// Reject writes the preserialized 503 + Retry-After shed response.
func (c *Controller) Reject(w http.ResponseWriter, format RejectFormat) {
	h := w.Header()
	h["Retry-After"] = c.retryAfterHeader
	if format == RejectSOAP {
		h["Content-Type"] = c.soapContentType
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write(c.rejectSOAP)
		return
	}
	h["Content-Type"] = c.jsonContentType
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write(c.rejectJSON)
}

// FastHandler is the optional zero-allocation escape hatch a wrapped
// handler can implement. After a request is admitted — and before the
// deadline budget derives a context (which allocates) — Wrap offers the
// request to FastServe. Returning true means the response was written in
// full (typically from a preserialized cache) and the slot is released
// immediately; returning false falls through to the normal path. A fast
// path must not block, so running it without a deadline budget is sound.
type FastHandler interface {
	FastServe(w http.ResponseWriter, r *http.Request) bool
}

// AdmissionNoter is implemented by ResponseWriter wrappers that want to
// know the request waited in the admission queue before being served
// (the flight recorder's frame, for one). Wrap asserts for it on the
// promoted path only, so admit stays independent of the observer.
type AdmissionNoter interface {
	NoteQueued()
}

// Wrap guards next with admission control and deadline enforcement for
// class. A nil *Controller wraps nothing, so callers can build their mux
// unconditionally and flip admission with one config field.
//
// The request flow: TryAdmit → (possibly) wait FIFO for a slot, bounded
// by the class queue timeout and the client disconnecting → offer the
// request to next's FastServe if it implements FastHandler → otherwise
// run next with the class deadline budget on the request context →
// Release the slot, promoting the next waiter. The FastHandler assertion
// happens once here, not per request.
func (c *Controller) Wrap(class Class, format RejectFormat, next http.Handler) http.Handler {
	if c == nil {
		return next
	}
	fast, _ := next.(FastHandler)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := c.clock.Now()
		out, t := c.TryAdmit(class, now)
		switch out {
		case Shed:
			c.Reject(w, format)
			return
		case Queued:
			if !c.awaitTurn(t, r) {
				c.Reject(w, format)
				return
			}
			if n, ok := w.(AdmissionNoter); ok {
				n.NoteQueued()
			}
		}
		// The fast path runs before the defer below is registered, so a
		// hit never pays for the deferred closure either.
		if fast != nil && fast.FastServe(w, r) {
			c.Release(class, now, c.clock.Now())
			return
		}
		defer func() {
			c.Release(class, now, c.clock.Now())
		}()
		d := c.Deadline(class, r.Header.Get(DeadlineHeader))
		if d <= 0 {
			next.ServeHTTP(w, r)
			return
		}
		// The budget runs from arrival, so the time spent queueing above is
		// charged to it: a request promoted after its deadline is refused by
		// the handler's first Err check, not served late.
		b := &budget{parent: r.Context(), clock: c.clock, deadline: now.Add(d)}
		next.ServeHTTP(w, r.WithContext(b))
		if b.end() {
			c.NoteDeadlineExceeded(class)
		}
	})
}

// awaitTurn blocks a queued request until its ticket is promoted, the
// class queue timeout fires, or the client disconnects. It reports
// whether the request now owns an in-flight slot.
func (c *Controller) awaitTurn(t *Ticket, r *http.Request) bool {
	qt := c.classes[t.class].limits.QueueTimeout
	select {
	case <-t.Ready():
		return true
	case <-r.Context().Done():
		if !c.CancelQueued(t, c.clock.Now(), false) {
			// Lost the race: the slot is ours. Run the handler anyway —
			// it observes the dead context and returns immediately, and
			// the normal Release path promotes the next waiter.
			return true
		}
		return false
	case <-c.clock.After(qt):
		if !c.CancelQueued(t, c.clock.Now(), true) {
			return true
		}
		return false
	}
}

// WithBudget derives a context whose budget ends d from now on the
// controller's clock: the budget Wrap gives an admitted request, for work
// that does not arrive through Wrap. Cancelling ends the budget; the
// returned exceeded func reports whether the deadline had passed by then
// (or by now, if the work is still running).
func (c *Controller) WithBudget(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc, func() bool) {
	if d <= 0 {
		return ctx, func() {}, func() bool { return false }
	}
	b := &budget{parent: ctx, clock: c.clock, deadline: c.clock.Now().Add(d)}
	return b, func() { b.end() }, b.exceeded
}

// budget is the context an admitted request runs under: its parent, the
// controller's clock and an absolute deadline on that clock. Err compares
// the clock with the deadline and then asks the parent, so a handler that
// only checks Err — every service route does — gets its deadline without a
// timer, a goroutine or a registration with the parent. Done arms a
// watcher the first time somebody calls it; on the real clock and on a
// simulated one alike.
type budget struct {
	parent   context.Context
	clock    simclock.Clock
	deadline time.Time
	// why latches what ended the budget, so Err keeps giving the first
	// error it gave.
	why atomic.Uint32

	mu   sync.Mutex
	done chan struct{} // guarded by mu; nil until Done is first called
	stop chan struct{} // guarded by mu; closed by end to release the watcher
}

// Reasons a budget ended, stored in budget.why.
const (
	budgetRunning uint32 = iota
	budgetExpired        // the deadline passed on the clock
	budgetParent         // the parent ended first (the client went away)
	budgetEnded          // the request finished inside its deadline
)

// closedDone is the Done channel of a budget already over when Done is
// first called.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Deadline reports the earlier of the budget's deadline and the parent's.
// On a simulated clock the budget's deadline is not a wall-clock instant,
// and a dialer or an outgoing request would read it as one, so there only
// the parent's is reported.
func (b *budget) Deadline() (time.Time, bool) {
	pd, ok := b.parent.Deadline()
	if _, wall := b.clock.(simclock.Real); !wall || ok && pd.Before(b.deadline) {
		return pd, ok
	}
	return b.deadline, true
}

// Value implements context.Context.
func (b *budget) Value(key any) any { return b.parent.Value(key) }

// Err reports context.DeadlineExceeded once the clock reaches the
// deadline, the parent's error once the parent has ended, and
// context.Canceled after end; nil while the budget runs.
func (b *budget) Err() error {
	switch b.why.Load() {
	case budgetExpired:
		return context.DeadlineExceeded
	case budgetParent:
		return b.parent.Err()
	case budgetEnded:
		return context.Canceled
	}
	switch {
	case !b.clock.Now().Before(b.deadline):
		b.why.CompareAndSwap(budgetRunning, budgetExpired)
	case b.parent.Err() != nil:
		b.why.CompareAndSwap(budgetRunning, budgetParent)
	default:
		return nil
	}
	return b.Err()
}

// Done returns a channel closed when the budget ends. The first call on a
// running budget starts the watcher that closes it: a goroutine waiting
// for the deadline on the clock, the parent, or end. On a budget already
// over it returns a closed channel and starts nothing.
func (b *budget) Done() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done == nil {
		if b.Err() != nil {
			b.done = closedDone
		} else {
			b.done, b.stop = make(chan struct{}), make(chan struct{})
			go b.watch(b.clock.After(b.deadline.Sub(b.clock.Now())), b.done, b.stop)
		}
	}
	return b.done
}

// watch closes done when the first of expire, the parent and stop fires.
// Err needs no word from it: by then the clock has reached the deadline,
// the parent reports its error, or end has latched budgetEnded. The first
// Err check covers a clock moved past the deadline between Done's check
// and expire's registration, which expire would only see late.
func (b *budget) watch(expire <-chan time.Time, done, stop chan struct{}) {
	if b.Err() == nil {
		select {
		case <-expire:
		case <-b.parent.Done():
		case <-stop:
		}
	}
	close(done)
}

// exceeded reports whether the budget ended, or has by now, at its
// deadline.
func (b *budget) exceeded() bool {
	b.Err()
	return b.why.Load() == budgetExpired
}

// end finishes the request the budget was given to and reports whether it
// overran its deadline. A budget still running reads as cancelled from
// here on, and a watcher Done armed exits.
func (b *budget) end() bool {
	exceeded := b.exceeded()
	b.why.CompareAndSwap(budgetRunning, budgetEnded)
	b.mu.Lock()
	if b.stop != nil {
		close(b.stop)
		b.stop = nil
	}
	b.mu.Unlock()
	return exceeded
}
