// writer.go is the pooled per-request frame: a ResponseWriter wrapper
// that carries the in-progress flight Record through the middleware
// stack. The edge wraps every service route's writer in one; the inner
// handlers annotate the record through From (a type assertion, not a
// context value, so the zero-allocation cache-hit path stays free), and
// the wrapper derives the admission outcome from the status it saw.
package flight

import (
	"context"
	"net/http"
	"sync"
)

// Writer wraps a ResponseWriter, capturing the served status and carrying
// the request's Record. Writers are pooled; a request borrows one for its
// lifetime, so annotating Rec costs field stores, never allocation.
type Writer struct {
	inner  http.ResponseWriter
	status int32
	queued bool
	// Rec accumulates the request's flight record. The outer edge wrapper
	// fills the envelope (route, timing, tier); inner handlers fill the
	// decision detail.
	Rec Record
	// timer writes into Rec.Stages once the sampler picked the request.
	timer StageTimer
}

var writerPool = sync.Pool{New: func() interface{} { return new(Writer) }}

// GetWriter borrows a pooled Writer wrapping w.
func GetWriter(w http.ResponseWriter) *Writer {
	fw := writerPool.Get().(*Writer)
	fw.inner = w
	fw.status = 0
	fw.queued = false
	fw.Rec = Record{}
	return fw
}

// PutWriter returns a Writer to the pool. The caller must not retain it.
func PutWriter(fw *Writer) {
	fw.inner = nil
	writerPool.Put(fw)
}

// From recovers the request's frame from its ResponseWriter; nil when
// the route is not flight-wrapped (direct handler tests, for example).
func From(w http.ResponseWriter) *Writer {
	fw, _ := w.(*Writer)
	return fw
}

// Header passes through to the wrapped writer.
func (fw *Writer) Header() http.Header { return fw.inner.Header() }

// Write forwards the body bytes, defaulting the status to 200 like
// net/http does.
func (fw *Writer) Write(b []byte) (int, error) {
	if fw.status == 0 {
		fw.status = http.StatusOK
	}
	return fw.inner.Write(b)
}

// WriteHeader records the first explicit status and forwards it.
func (fw *Writer) WriteHeader(code int) {
	if fw.status == 0 {
		fw.status = int32(code)
	}
	fw.inner.WriteHeader(code)
}

// NoteQueued marks the request as having waited in the admission queue
// before being served. The admission middleware calls it (by interface
// assertion, so admit does not import flight) on the promoted path only.
func (fw *Writer) NoteQueued() { fw.queued = true }

// Finish derives the record's status and outcome from what was served:
// a 503 is an admission shed (the edge's only source of 503s), other
// 5xx are errors, 4xx client errors, everything else admitted — or
// queued when the admission middleware said so.
func (fw *Writer) Finish() {
	status := fw.status
	if status == 0 {
		status = http.StatusOK
	}
	fw.Rec.Status = status
	switch {
	case status == http.StatusServiceUnavailable:
		fw.Rec.Outcome = OutcomeShed
	case status >= 500:
		fw.Rec.Outcome = OutcomeError
	case status >= 400:
		fw.Rec.Outcome = OutcomeClientError
	case fw.queued:
		fw.Rec.Outcome = OutcomeQueued
	default:
		fw.Rec.Outcome = OutcomeAdmitted
	}
}

// frameKey threads a frame through a context for code that never sees the
// ResponseWriter: the SOAP dispatch path, and the query manager and
// balancer under a sampled request. Both allocate per request regardless,
// so a context value is affordable there.
type frameKey struct{}

// WithFrame returns ctx carrying fw.
func WithFrame(ctx context.Context, fw *Writer) context.Context {
	return context.WithValue(ctx, frameKey{}, fw)
}

// FrameFrom recovers the frame threaded by WithFrame; nil when absent.
func FrameFrom(ctx context.Context) *Writer {
	fw, _ := ctx.Value(frameKey{}).(*Writer)
	return fw
}

// TimerFrom returns the stage timer of the sampled request ctx belongs
// to, or nil — no frame, or a request the sampler did not pick. Every
// StageTimer method is a no-op on nil, so callers use the result unchecked.
func TimerFrom(ctx context.Context) *StageTimer {
	fw := FrameFrom(ctx)
	if fw == nil || fw.Rec.Trace == "" {
		return nil
	}
	return &fw.timer
}
