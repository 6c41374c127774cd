package lcm

import (
	"repro/internal/rim"
	"repro/internal/store"
)

// Mutation is one logical LCM write: the unit appended to the write-ahead
// log and then applied to the store. Its Change carries the full post-state
// of every object the operation wrote (including the audit trail's
// AuditableEvent), the ids it removed, and a repository-item body put or
// delete. Carrying post-state rather than the request makes replay a
// trivial, idempotent sequence of store operations — no policy, audit, or
// versioning logic runs again during recovery.
type Mutation struct {
	// Op names the originating operation (the rim event type, or
	// "PutDirect"/"PutContent"/"DeleteContent"); diagnostic only.
	Op string
	store.Change
}

// Durability is the write-ahead hook the registry wires to internal/wal.
// Manager.commit brackets every write; the bus hears of it after EndWrite:
//
//	BeginWrite -> compute -> Commit(mutation) -> Store.Apply -> EndWrite
//
// BeginWrite serializes all registry writes behind one lock so the WAL's
// record order equals the store's apply order, and fails with the
// implementation's typed read-only error once durability has degraded.
// Commit must persist the mutation before returning: when it returns nil
// the write is on disk (to the configured fsync policy), and only then is
// it applied and acknowledged to the client. The puts it is handed are
// Admit's copies, the objects the store will hold; it may give each the
// JSON the record carries it as (store.Entry), which the store then keeps
// for its snapshots instead of encoding the object again. The store holds every
// committed mutation by the time EndWrite runs, so that is where an
// implementation snapshots it.
type Durability interface {
	BeginWrite() error
	Commit(*Mutation) error
	EndWrite()
}

// apply runs one write that needs nothing read from the store first.
func (m *Manager) apply(mut Mutation) error {
	return m.do(func() ([]write, error) { return []write{{Mutation: mut}}, nil })
}

// PutDirect durably stores objects without policy evaluation, auditing,
// or events — the path for server-managed objects (self-registered User
// records, bootstrap fixtures), which are acknowledged writes like any
// other and so go through the log.
func (m *Manager) PutDirect(objs ...rim.Object) error {
	return m.SwapDirect(nil, objs...)
}

// SwapDirect is PutDirect that first removes the objects with the given
// ids, all as one logged mutation — how each boot supersedes the previous
// boot's operator row. Ids that are not stored are skipped, as replay
// skips them.
func (m *Manager) SwapDirect(deletes []string, objs ...rim.Object) error {
	puts := make([]store.Entry, len(objs))
	for i, o := range objs {
		puts[i].Object = o
	}
	return m.apply(Mutation{Op: "PutDirect", Change: store.Change{Puts: puts, Deletes: deletes}})
}

// PutContent durably stores a repository-item body. Authorization happened
// on the owning ExtrinsicObject's LCM operation; this only makes the body
// itself crash-safe.
func (m *Manager) PutContent(contentID string, data []byte) error {
	return m.apply(Mutation{Op: "PutContent", Change: store.Change{ContentPutID: contentID, Content: data}})
}

// DeleteContent durably removes a repository-item body.
func (m *Manager) DeleteContent(contentID string) error {
	return m.apply(Mutation{Op: "DeleteContent", Change: store.Change{ContentDeleteID: contentID}})
}
