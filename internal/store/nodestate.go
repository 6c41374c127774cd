package store

import (
	"maps"
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

// NodeStateTable holds the NodeState table as one immutable TableSnapshot
// behind an atomic pointer. Readers — discovery, metrics, checkpoints —
// load it and take no lock. Writers build the next snapshot whole and
// install it under mu: the collector once per sweep, checkpoint restore,
// and Upsert. Each install is one generation, so a reader sees a sweep
// entirely or not at all.
type NodeStateTable struct {
	mu   sync.Mutex // serialises installs
	snap atomic.Pointer[TableSnapshot]
}

// NewNodeStateTable creates an empty table. Its snapshot is generation 1:
// a decision that consulted the table never records generation 0.
func NewNodeStateTable() *NodeStateTable {
	t := &NodeStateTable{}
	t.snap.Store(&TableSnapshot{gen: 1})
	return t
}

// Snapshot returns the installed snapshot: one atomic load.
func (t *NodeStateTable) Snapshot() *TableSnapshot { return t.snap.Load() }

// Install installs the next generation, taken at taken: the installed
// rows overlaid with rows in order, so a later row for a host wins over an
// earlier one and a host rows does not name carries over unchanged.
func (t *NodeStateTable) Install(rows []NodeState, taken time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.installLocked(t.snap.Load().rows, rows, taken)
}

// Upsert installs row over the table, taken when the row was measured.
func (t *NodeStateTable) Upsert(row NodeState) {
	t.Install([]NodeState{row}, row.Updated)
}

// Reset installs rows in place of every row, keeping the table's identity
// so holders of the pointer (balancer, collector) observe the restored
// rows. Checkpoint restore uses it; the snapshot counts as taken when its
// newest row was measured.
func (t *NodeStateTable) Reset(rows []NodeState) {
	var taken time.Time
	for _, r := range rows {
		if r.Updated.After(taken) {
			taken = r.Updated
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.installLocked(nil, rows, taken)
}

// installLocked installs base overlaid with rows as the next generation.
// Called with mu held.
func (t *NodeStateTable) installLocked(base map[string]NodeState, rows []NodeState, taken time.Time) {
	m := make(map[string]NodeState, len(base)+len(rows))
	maps.Copy(m, base)
	for _, r := range rows {
		m[r.Host] = r
	}
	t.snap.Store(&TableSnapshot{gen: t.snap.Load().gen + 1, taken: taken, rows: m})
}

// TableSnapshot is one installed generation of a NodeStateTable. It is
// never mutated, so any number of readers may consult it while the next
// one is being built.
type TableSnapshot struct {
	gen   uint64
	taken time.Time
	rows  map[string]NodeState
}

// Gen is the snapshot's install generation, recorded on discovery
// Decisions: two decisions with the same gen read the same rows.
func (s *TableSnapshot) Gen() uint64 { return s.gen }

// Taken is when the snapshot's rows were gathered: the sweep's time, or
// for Upsert and Reset the newest row's Updated.
func (s *TableSnapshot) Taken() time.Time { return s.taken }

// Len returns the number of rows in the snapshot.
func (s *TableSnapshot) Len() int { return len(s.rows) }

// Get returns the snapshot's row for host and whether it exists.
func (s *TableSnapshot) Get(host string) (NodeState, bool) {
	row, ok := s.rows[host]
	return row, ok
}

// Rows returns all rows sorted by host.
func (s *TableSnapshot) Rows() []NodeState {
	rows := make([]NodeState, 0, len(s.rows))
	for _, r := range s.rows {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Host < rows[j].Host })
	return rows
}
