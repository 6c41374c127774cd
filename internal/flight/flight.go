// Package flight is the registry's always-on wide-event recorder: one
// fixed-size record per served (or shed) edge request, written into a
// lock-free power-of-two ring and read back through /registry/flight.
//
// The record is the registry's only per-request event. Every request
// leaves one — including the preserialized cache hits that bypass
// marshalling on the zero-allocation serving edge — and every Nth request
// (see Sampler) additionally carries a trace id and the time each
// discovery stage took (see StageTimer), which /registry/traces reads back
// as a filtered view of the same ring. The cache-hit path's allocation
// budget is the design constraint here:
//
//   - Records are written field-by-field into preallocated ring slots, so
//     appending allocates nothing.
//   - Every slot field is an atomic cell guarded by a per-slot sequence
//     number (a seqlock): writers mark the slot odd, store the fields,
//     then publish the even sequence; readers accept a slot only when the
//     sequence is even and unchanged across their copy. Torn reads are
//     skipped, never served, and — because every access is atomic — the
//     scheme is clean under the race detector.
//   - The string fields survive slot reuse without allocation by
//     pointer, not by copy: chosen hosts come from a bounded intern table
//     (the host set is the deployment, which is small), and the trace id
//     and stage times are boxed together only for a sampled request — a
//     path that allocates for the id anyway.
//
// The ring drops the oldest record on wrap by construction; a diagnostic
// buffer that sheds history under load is the point, a diagnostic buffer
// that backpressures the serving edge would be a bug.
package flight

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRingSize is the record capacity used when NewRing is given a
// non-positive size.
const DefaultRingSize = 4096

// maxInternedHosts bounds the host intern table; a deployment has a
// handful of hosts, so hitting the cap means garbage keys — further
// unknown hosts are recorded as empty rather than growing forever.
const maxInternedHosts = 4096

// Route classifies the edge route a record was cut on.
type Route uint8

const (
	RouteUnknown Route = iota
	RouteBindings
	RouteObject
	RouteFind
	RouteQuery
	RouteContent
	RouteSOAPRegistry
	RouteSOAPAuth
)

var routeNames = [...]string{"unknown", "bindings", "object", "find", "query", "content", "soap-registry", "soap-auth"}

func (r Route) String() string {
	if int(r) < len(routeNames) {
		return routeNames[r]
	}
	return "unknown"
}

// RouteByName resolves a /registry/flight filter value; false when the
// name matches no route.
func RouteByName(name string) (Route, bool) {
	for i, n := range routeNames {
		if n == name {
			return Route(i), true
		}
	}
	return RouteUnknown, false
}

// Outcome is the admission-plus-completion fate of one request.
type Outcome uint8

const (
	// OutcomeAdmitted was admitted immediately and served.
	OutcomeAdmitted Outcome = iota
	// OutcomeQueued waited in the admission FIFO before being served.
	OutcomeQueued
	// OutcomeShed was rejected by admission control (503 + Retry-After).
	OutcomeShed
	// OutcomeClientError was served a 4xx.
	OutcomeClientError
	// OutcomeError was served a 5xx other than an admission shed.
	OutcomeError
)

var outcomeNames = [...]string{"admitted", "queued", "shed", "client-error", "error"}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// OutcomeByName resolves a filter value; false when unknown.
func OutcomeByName(name string) (Outcome, bool) {
	for i, n := range outcomeNames {
		if n == name {
			return Outcome(i), true
		}
	}
	return 0, false
}

// Verdict summarizes the balancer decision behind a discovery response.
// It is the constraint-filtering outcome collapsed to one ordinal, not
// the per-binding verdict vector (the counts carry that).
type Verdict uint8

const (
	// VerdictNone: the route involved no balancer decision.
	VerdictNone Verdict = iota
	// VerdictFiltered: constraints evaluated and the list was filtered.
	VerdictFiltered
	// VerdictStock: no constraint applied; stored order served.
	VerdictStock
	// VerdictWindowClosed: the constraint's time window was closed.
	VerdictWindowClosed
	// VerdictFallback: nothing eligible; FallbackAll served load order.
	VerdictFallback
	// VerdictDegraded: degraded mode served (static or empty).
	VerdictDegraded
)

var verdictNames = [...]string{"none", "filtered", "stock", "window-closed", "fallback", "degraded"}

func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return "unknown"
}

// Record is one wide event: everything the serving edge knew about one
// request, flattened to fixed-size fields. It is assembled on the
// caller's stack (or inside the pooled Writer) and copied into a ring
// slot by Append; the struct itself never escapes.
type Record struct {
	// Seq is the ring-assigned append sequence (1-based); assigned by
	// Append, newest records have the highest sequence.
	Seq uint64
	// Unix is the request's start instant on the registry clock, in
	// nanoseconds since the epoch.
	Unix int64
	// Latency is the request's duration on the registry clock.
	Latency time.Duration
	// Route is the edge route class.
	Route Route
	// Outcome is the admission-plus-completion fate.
	Outcome Outcome
	// Status is the HTTP status served.
	Status int32
	// CacheHit marks a response served preserialized from the response
	// cache (the FastServe path or its SOAP twin).
	CacheHit bool
	// Verdict summarizes the balancer decision; VerdictNone when the
	// route ran none.
	Verdict Verdict
	// Tier is the brownout ladder tier the request was served under.
	Tier uint8
	// SnapshotGen and SnapshotAge identify the NodeState snapshot the
	// decision read: its publish generation and its age at decision time.
	SnapshotGen uint64
	SnapshotAge time.Duration
	// Eligible..Quarantined are the decision's per-verdict binding counts,
	// saturating at 255.
	Eligible    uint8
	Unknown     uint8
	Ineligible  uint8
	Quarantined uint8
	// Host is the chosen host — the host of the first URI served. Interned
	// by Append; empty when the route serves no URI list.
	Host string
	// Trace is the request's trace id when the sampler picked it, echoed to
	// the client in the X-Registry-Trace header; empty otherwise.
	Trace string
	// Stages is the time a sampled request spent in each discovery stage,
	// indexed by Stage. The ring keeps it only when Trace is set.
	Stages [NumStages]time.Duration
}

// meta packs the small enum and count fields into one atomic word:
// route | outcome<<8 | verdict<<16 | tier<<24 | eligible<<32 |
// unknown<<40 | ineligible<<48 | quarantined<<56.
func (r *Record) meta() uint64 {
	return uint64(r.Route) | uint64(r.Outcome)<<8 | uint64(r.Verdict)<<16 | uint64(r.Tier)<<24 |
		uint64(r.Eligible)<<32 | uint64(r.Unknown)<<40 | uint64(r.Ineligible)<<48 | uint64(r.Quarantined)<<56
}

func (r *Record) setMeta(m uint64) {
	r.Route = Route(m)
	r.Outcome = Outcome(m >> 8)
	r.Verdict = Verdict(m >> 16)
	r.Tier = uint8(m >> 24)
	r.Eligible = uint8(m >> 32)
	r.Unknown = uint8(m >> 40)
	r.Ineligible = uint8(m >> 48)
	r.Quarantined = uint8(m >> 56)
}

// Sat8 saturates a binding count into a Record's uint8 fields.
func Sat8(n int) uint8 {
	if n < 0 {
		return 0
	}
	if n > 255 {
		return 255
	}
	return uint8(n)
}

// cacheHitFlag rides in the slot's status word above the HTTP status
// bits, so the boolean needs no atomic cell of its own.
const cacheHitFlag int32 = 1 << 16

// slot is one ring cell. Every field is an individually atomic cell so
// concurrent writer/reader access is race-free; seq is the seqlock:
// 2*n-1 while append n is in progress, 2*n once published.
type slot struct {
	seq    atomic.Uint64
	unix   atomic.Int64
	lat    atomic.Int64
	gen    atomic.Uint64
	age    atomic.Int64
	meta   atomic.Uint64
	status atomic.Int32
	host   atomic.Pointer[string]
	trace  atomic.Pointer[sampled]
}

// sampled is what only a sampled record carries, boxed once and immutable
// after it is published to a slot.
type sampled struct {
	id     string
	stages [NumStages]time.Duration
}

// Ring is the lock-free flight-record ring. The zero value is unusable;
// build one with NewRing. All methods are safe for concurrent use.
type Ring struct {
	slots []slot
	mask  uint64
	pos   atomic.Uint64 // appends issued; slot index is (pos-1)&mask

	hostMu sync.Mutex // serialises host intern insertion only
	hosts  atomic.Pointer[map[string]*string]
}

// NewRing builds a ring holding size records, rounded up to a power of
// two; size <= 0 means DefaultRingSize.
func NewRing(size int) *Ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Ring{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Len reports the ring's record capacity.
func (r *Ring) Len() int {
	return len(r.slots)
}

// Written reports the total records appended since boot (wrapped records
// included).
func (r *Ring) Written() uint64 {
	return r.pos.Load()
}

// Append copies rec into the next ring slot. It never blocks, never
// allocates for records without a trace id, and assigns rec.Seq. Stages
// is kept only alongside a trace id.
func (r *Ring) Append(rec *Record) {
	n := r.pos.Add(1)
	rec.Seq = n
	s := &r.slots[(n-1)&r.mask]
	s.seq.Store(2*n - 1) // odd: write in progress
	s.unix.Store(rec.Unix)
	s.lat.Store(int64(rec.Latency))
	s.gen.Store(rec.SnapshotGen)
	s.age.Store(int64(rec.SnapshotAge))
	s.meta.Store(rec.meta())
	status := rec.Status
	if rec.CacheHit {
		status |= cacheHitFlag
	}
	s.status.Store(status)
	s.host.Store(r.internHost(rec.Host))
	if rec.Trace == "" {
		s.trace.Store(nil)
	} else {
		// The sampler already allocated the id, so one more small object
		// on a sampled request is noise.
		s.trace.Store(&sampled{id: rec.Trace, stages: rec.Stages})
	}
	s.seq.Store(2 * n) // even: published
}

// internHost returns the stable boxed string for host, inserting it on
// first sight. The fast path is one atomic map read; insertion is the
// cold path behind a mutex and a copied map, the metrics.CounterSet
// layout.
func (r *Ring) internHost(host string) *string {
	if host == "" {
		return nil
	}
	if m := r.hosts.Load(); m != nil {
		if p, ok := (*m)[host]; ok {
			return p
		}
	}
	return r.internHostSlow(host)
}

// internHostSlow publishes a copied intern map with host added.
func (r *Ring) internHostSlow(host string) *string {
	r.hostMu.Lock()
	defer r.hostMu.Unlock()
	old := r.hosts.Load()
	if old != nil {
		if p, ok := (*old)[host]; ok {
			return p
		}
		if len(*old) >= maxInternedHosts {
			return nil // garbage keys; drop rather than grow forever
		}
	}
	var size int
	if old != nil {
		size = len(*old)
	}
	next := make(map[string]*string, size+1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	p := new(string)
	*p = host
	next[host] = p
	r.hosts.Store(&next)
	return p
}

// read copies append #n's slot into rec if the slot still holds that
// append, intact. It reports false for torn, overwritten, or not-yet
// written slots.
func (r *Ring) read(n uint64, rec *Record) bool {
	s := &r.slots[(n-1)&r.mask]
	if s.seq.Load() != 2*n {
		return false
	}
	rec.Seq = n
	rec.Unix = s.unix.Load()
	rec.Latency = time.Duration(s.lat.Load())
	rec.SnapshotGen = s.gen.Load()
	rec.SnapshotAge = time.Duration(s.age.Load())
	rec.setMeta(s.meta.Load())
	status := s.status.Load()
	rec.CacheHit = status&cacheHitFlag != 0
	rec.Status = status &^ cacheHitFlag
	rec.Host = derefOr(s.host.Load())
	rec.Trace, rec.Stages = "", [NumStages]time.Duration{}
	if t := s.trace.Load(); t != nil {
		rec.Trace, rec.Stages = t.id, t.stages
	}
	// Validate after the copy: an unchanged even sequence means no writer
	// touched the slot while we read it.
	return s.seq.Load() == 2*n
}

func derefOr(p *string) string {
	if p == nil {
		return ""
	}
	return *p
}

// Filter selects records for Snapshot. The zero value matches everything.
type Filter struct {
	// Route restricts to one route class when HasRoute is set.
	Route    Route
	HasRoute bool
	// Outcome restricts to one outcome when HasOutcome is set.
	Outcome    Outcome
	HasOutcome bool
	// Host restricts to records whose chosen host equals Host.
	Host string
	// CacheHit restricts to hits (true) or misses (false) when
	// HasCacheHit is set.
	CacheHit    bool
	HasCacheHit bool
	// Traced restricts to sampled records (those carrying a trace id);
	// Trace further restricts to the one with that id.
	Traced bool
	Trace  string
	// Limit bounds the returned records; <= 0 means 100.
	Limit int
}

func (f *Filter) match(rec *Record) bool {
	if f.HasRoute && rec.Route != f.Route {
		return false
	}
	if f.HasOutcome && rec.Outcome != f.Outcome {
		return false
	}
	if f.Host != "" && rec.Host != f.Host {
		return false
	}
	if f.HasCacheHit && rec.CacheHit != f.CacheHit {
		return false
	}
	if f.Traced && rec.Trace == "" {
		return false
	}
	if f.Trace != "" && rec.Trace != f.Trace {
		return false
	}
	return true
}

// Snapshot returns the newest matching records, newest first. It walks
// at most one ring's worth of history; records overwritten or mid-write
// during the walk are skipped, not waited for.
func (r *Ring) Snapshot(f Filter) []Record {
	limit := f.Limit
	if limit <= 0 {
		limit = 100
	}
	newest := r.pos.Load()
	span := uint64(len(r.slots))
	if newest < span {
		span = newest
	}
	out := make([]Record, 0, min(limit, int(span)))
	var rec Record
	for i := uint64(0); i < span && len(out) < limit; i++ {
		n := newest - i
		if !r.read(n, &rec) {
			continue
		}
		if f.match(&rec) {
			out = append(out, rec)
		}
	}
	return out
}
