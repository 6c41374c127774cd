package admit

import (
	"context"
	"errors"
	"net/http"
	"strconv"
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
		ctx, cancel, exceeded := c.WithBudget(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
		if exceeded() {
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

// WithBudget derives a context that is cancelled after d on the
// controller's clock. The returned exceeded func reports (after the
// work finishes) whether the budget expired. On the real clock this is
// context.WithTimeout; on a simulated clock a helper goroutine races
// clock.After against completion so tests and the flash-crowd harness
// stay deterministic.
func (c *Controller) WithBudget(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc, func() bool) {
	if d <= 0 {
		return ctx, func() {}, func() bool { return false }
	}
	if _, ok := c.clock.(simclock.Real); ok {
		tctx, cancel := context.WithTimeout(ctx, d)
		return tctx, cancel, func() bool { return errors.Is(tctx.Err(), context.DeadlineExceeded) }
	}
	tctx, cancel := context.WithCancel(ctx)
	var hit atomic.Bool
	expire := c.clock.After(d)
	go func() {
		select {
		case <-expire:
			hit.Store(true)
			cancel()
		case <-tctx.Done():
		}
	}()
	return tctx, cancel, hit.Load
}
