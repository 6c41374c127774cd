package lcm

import (
	"errors"
	"fmt"

	"repro/internal/rim"
	"repro/internal/store"
)

// Mutation is one logical, acknowledged LCM write: the unit appended to
// the write-ahead log. Puts carry the full post-state of every object the
// operation wrote (including the audit trail's AuditableEvent), Deletes
// the ids it removed, and the Content fields a repository-item body put
// or delete. Carrying post-state rather than the request makes replay a
// trivial, idempotent sequence of store operations — no policy, audit, or
// versioning logic runs again during recovery.
type Mutation struct {
	// Op names the originating operation (the rim event type, or
	// "PutDirect"/"PutContent"/"DeleteContent"); diagnostic only.
	Op string
	// Puts are full post-state objects to store on replay.
	Puts []rim.Object
	// Deletes are object ids to remove on replay (missing ids are
	// ignored: replay after a covering checkpoint is idempotent).
	Deletes []string
	// ContentPutID/Content carry a repository-item body written by the
	// operation; ContentDeleteID one removed by it.
	ContentPutID    string
	Content         []byte
	ContentDeleteID string
}

// Durability is the write-ahead hook the registry wires to internal/wal.
// Every mutating Manager method brackets its work:
//
//	BeginWrite -> store mutations -> Commit(mutation) -> EndWrite
//
// BeginWrite serializes all registry writes behind one lock so the WAL's
// record order equals the store's apply order, and fails with the
// implementation's typed read-only error once durability has degraded.
// Commit must persist the mutation before returning: when it returns nil
// the write is on disk (to the configured fsync policy) and may be
// acknowledged to the client.
type Durability interface {
	BeginWrite() error
	Commit(Mutation) error
	EndWrite()
}

// beginWrite opens the durability bracket and returns the matching close
// function. With no Durability configured the bracket is free.
func (m *Manager) beginWrite() (func(), error) {
	if m.Durability == nil {
		return func() {}, nil
	}
	if err := m.Durability.BeginWrite(); err != nil {
		return nil, fmt.Errorf("lcm: %w", err)
	}
	return m.Durability.EndWrite, nil
}

// commit logs one mutation inside an open bracket; a logging failure is a
// refusal to acknowledge the write.
func (m *Manager) commit(mut Mutation) error {
	if m.Durability == nil {
		return nil
	}
	if err := m.Durability.Commit(mut); err != nil {
		return fmt.Errorf("lcm: %s not durable: %w", mut.Op, err)
	}
	return nil
}

// PutDirect durably stores objects without policy evaluation, auditing,
// or events — the path for server-managed objects (self-registered User
// records, bootstrap fixtures) that previously went straight to the store
// and so were invisible to the write-ahead log.
func (m *Manager) PutDirect(objs ...rim.Object) error {
	return m.SwapDirect(nil, objs...)
}

// SwapDirect is PutDirect that first removes the objects with the given
// ids, all as one logged mutation — how each boot supersedes the previous
// boot's operator row. Ids that are not stored are skipped, as replay
// skips them.
func (m *Manager) SwapDirect(deletes []string, objs ...rim.Object) error {
	end, err := m.beginWrite()
	if err != nil {
		return err
	}
	defer end()
	for _, id := range deletes {
		if err := m.Store.Delete(id); err != nil && !errors.Is(err, store.ErrNotFound) {
			return fmt.Errorf("lcm: putDirect: %w", err)
		}
	}
	for _, o := range objs {
		if err := m.Store.Put(o); err != nil {
			return fmt.Errorf("lcm: putDirect: %w", err)
		}
	}
	if err := m.commit(Mutation{Op: "PutDirect", Puts: objs, Deletes: deletes}); err != nil {
		return err
	}
	if m.OnWrite != nil {
		m.OnWrite()
	}
	return nil
}

// PutContent durably stores a repository-item body. Authorization happened
// on the owning ExtrinsicObject's LCM operation; this only makes the body
// itself crash-safe.
func (m *Manager) PutContent(contentID string, data []byte) error {
	end, err := m.beginWrite()
	if err != nil {
		return err
	}
	defer end()
	m.Store.PutContent(contentID, data)
	return m.commit(Mutation{Op: "PutContent", ContentPutID: contentID, Content: data})
}

// DeleteContent durably removes a repository-item body.
func (m *Manager) DeleteContent(contentID string) error {
	end, err := m.beginWrite()
	if err != nil {
		return err
	}
	defer end()
	m.Store.DeleteContent(contentID)
	return m.commit(Mutation{Op: "DeleteContent", ContentDeleteID: contentID})
}
