package store

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// HostHealth summarizes the collector's confidence in a host's row. The
// zero value is HealthHealthy so rows written before the fault-tolerance
// layer existed (snapshots, direct Upserts) read as healthy.
type HostHealth int

// Host health states, in decreasing order of trust.
const (
	// HealthHealthy means the latest collection succeeded.
	HealthHealthy HostHealth = iota
	// HealthDegraded means recent collections failed but the host's
	// breaker (if any) is still closed — the row may be stale.
	HealthDegraded
	// HealthQuarantined means the host's breaker is open (or half-open):
	// discovery should exclude it until a probe succeeds.
	HealthQuarantined
)

// String names the health state for reports and the web UI.
func (h HostHealth) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthQuarantined:
		return "quarantined"
	default:
		return "unknown-health"
	}
}

// NodeState is one row of the table in thesis Figure 3.2: the most recent
// performance sample for a host. HOST (the hostname part of an access URI)
// is the primary key; LOAD is the run-queue CPU load; MEMORY and SWAPMEMORY
// are the available physical and swap memory in bytes. Updated records when
// the row was written so readers can reason about staleness.
type NodeState struct {
	Host    string
	Load    float64
	MemoryB int64
	SwapB   int64
	// NetDelayMs is the §5.2 future-work extension: observed network
	// delay to the host in milliseconds (0 when not measured).
	NetDelayMs float64
	Updated    time.Time
	// Failures counts consecutive collection failures; a row with recent
	// failures is treated as unknown by strict policies.
	Failures int
	// Health is the collector's verdict on the row (see HostHealth);
	// quarantined hosts are excluded from discovery.
	Health HostHealth
}

// NodeStateTable is the concurrent NodeState store keyed by host. Writers
// (the collector, snapshot restore) mutate rows under mu; the discovery
// read path instead consumes an immutable RCU-style snapshot published via
// an atomic pointer swap (see Snapshot), so lookups never contend with a
// collector sweep in progress.
type NodeStateTable struct {
	mu   sync.RWMutex
	rows map[string]NodeState // guarded by mu

	// version counts row mutations; a snapshot remembers the version it
	// was built at so readers can detect staleness without locking.
	version atomic.Uint64
	// gen counts publishes, for Decision audit trails.
	gen  atomic.Uint64
	snap atomic.Pointer[TableSnapshot]
}

// NewNodeStateTable creates an empty table.
func NewNodeStateTable() *NodeStateTable {
	return &NodeStateTable{rows: make(map[string]NodeState)}
}

// Upsert writes the row for row.Host, replacing any previous row.
func (t *NodeStateTable) Upsert(row NodeState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows[row.Host] = row
	t.version.Add(1)
}

// RecordFailure increments the failure counter for host, creating the row
// if needed, and stamps the failure time. The row drops to HealthDegraded
// (unless already quarantined).
func (t *NodeStateTable) RecordFailure(host string, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.rows[host]
	row.Host = host
	row.Failures++
	row.Updated = at
	if row.Health == HealthHealthy {
		row.Health = HealthDegraded
	}
	t.rows[host] = row
	t.version.Add(1)
}

// SetHealth sets host's health verdict, creating the row if needed. The
// Updated stamp is left untouched: health is the collector's judgement, not
// a measurement.
func (t *NodeStateTable) SetHealth(host string, h HostHealth) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.rows[host]
	row.Host = host
	row.Health = h
	t.rows[host] = row
	t.version.Add(1)
}

// Reset replaces every row with the given set, keeping the table's
// identity so holders of the pointer (balancer, collector) observe the
// restored rows. Snapshot restore and WAL recovery use it.
func (t *NodeStateTable) Reset(rows []NodeState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = make(map[string]NodeState, len(rows))
	for _, r := range rows {
		t.rows[r.Host] = r
	}
	t.version.Add(1)
}

// Get returns the row for host and whether it exists.
func (t *NodeStateTable) Get(host string) (NodeState, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row, ok := t.rows[host]
	return row, ok
}

// Delete removes the row for host.
func (t *NodeStateTable) Delete(host string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.rows, host)
	t.version.Add(1)
}

// Hosts returns the known hostnames in sorted order.
func (t *NodeStateTable) Hosts() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	hosts := make([]string, 0, len(t.rows))
	for h := range t.rows {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

// Rows returns all rows sorted by host.
func (t *NodeStateTable) Rows() []NodeState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rows := make([]NodeState, 0, len(t.rows))
	for _, r := range t.rows {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Host < rows[j].Host })
	return rows
}

// Len returns the number of rows.
func (t *NodeStateTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// FreshRows returns the rows whose Updated stamp is no older than maxAge
// relative to now; maxAge <= 0 disables the staleness filter.
func (t *NodeStateTable) FreshRows(now time.Time, maxAge time.Duration) []NodeState {
	rows := t.Rows()
	if maxAge <= 0 {
		return rows
	}
	fresh := rows[:0]
	for _, r := range rows {
		if now.Sub(r.Updated) <= maxAge {
			fresh = append(fresh, r)
		}
	}
	return fresh
}

// TableSnapshot is an immutable point-in-time copy of a NodeStateTable,
// published by Publish and read lock-free by the discovery path. Rows are
// never mutated after the snapshot is built, so any number of concurrent
// readers may consult it while the collector rewrites the live table.
type TableSnapshot struct {
	gen     uint64
	version uint64
	taken   time.Time
	rows    map[string]NodeState // immutable after Publish
}

// Gen is the snapshot's publish generation number, recorded on discovery
// Decisions for auditability.
func (s *TableSnapshot) Gen() uint64 { return s.gen }

// Taken is the time the snapshot was built.
func (s *TableSnapshot) Taken() time.Time { return s.taken }

// Len returns the number of rows in the snapshot.
func (s *TableSnapshot) Len() int { return len(s.rows) }

// Get returns the snapshot's row for host and whether it exists.
func (s *TableSnapshot) Get(host string) (NodeState, bool) {
	row, ok := s.rows[host]
	return row, ok
}

// Publish builds an immutable snapshot of the current rows and installs it
// with an atomic pointer swap. The collector calls this once per sweep;
// discovery readers then consult the snapshot without taking any lock. A
// concurrent Publish racing with a newer one never installs the older
// snapshot over the newer.
func (t *NodeStateTable) Publish(now time.Time) *TableSnapshot {
	t.mu.RLock()
	version := t.version.Load()
	rows := make(map[string]NodeState, len(t.rows))
	for k, v := range t.rows {
		rows[k] = v
	}
	t.mu.RUnlock()
	s := &TableSnapshot{gen: t.gen.Add(1), version: version, taken: now, rows: rows}
	for {
		old := t.snap.Load()
		if old != nil && old.version > s.version {
			return old
		}
		if t.snap.CompareAndSwap(old, s) {
			return s
		}
	}
}

// Published returns the currently installed snapshot without building a
// fresh one (nil before the first Publish). Metrics exposition uses it to
// report snapshot generation and age without perturbing what it measures:
// a scrape must not republish and thereby reset the age it is reading.
func (t *NodeStateTable) Published() *TableSnapshot {
	return t.snap.Load()
}

// Snapshot returns a snapshot suitable for a discovery read at time now.
//
//   - If the published snapshot is coherent (the table has not changed
//     since it was built), it is returned with no locking at all — the
//     steady-state fast path between collector sweeps.
//   - If the table has changed but the published snapshot is no older
//     than maxAge, the slightly stale snapshot is still served lock-free:
//     this is the RCU tolerance window that keeps discovery from
//     contending with an in-progress collector sweep. The collector
//     publishes after every sweep, so staleness is bounded by the sweep
//     period plus maxAge.
//   - Otherwise (maxAge <= 0, or the guard expired) a fresh snapshot is
//     built and published, so callers always observe committed writes.
func (t *NodeStateTable) Snapshot(now time.Time, maxAge time.Duration) *TableSnapshot {
	s := t.snap.Load()
	if s != nil {
		if s.version == t.version.Load() {
			return s
		}
		if maxAge > 0 && now.Sub(s.taken) <= maxAge {
			return s
		}
	}
	return t.Publish(now)
}
