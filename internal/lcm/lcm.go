// Package lcm implements the registry's LifeCycleManager interface — the
// LM half of the Registry Service (thesis §1.3.2.4, Table 1.6, Fig. 1.19):
// submitObjects, updateObjects, approveObjects, deprecateObjects,
// undeprecateObjects, removeObjects, addSlots and removeSlots, plus the
// relocateObjects protocol of ebRS. Every operation is access-controlled
// through the XACML policy, appended to the audit trail, and published to
// the event bus; updates are automatically versioned.
//
// Cascade semantics follow the thesis's observed behaviour: deleting an
// Organization deletes the Services it offers ("Once an organization is
// deleted, all the services that are associated with it are also deleted
// from the registry", §3.4.4.2), and deleting any object removes the
// associations that dangle from it.
package lcm

import (
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync"

	"repro/internal/audit"
	"repro/internal/events"
	"repro/internal/rim"
	"repro/internal/store"
	"repro/internal/xacml"
)

// Errors surfaced to protocol layers.
var (
	ErrDenied       = errors.New("lcm: access denied")
	ErrInvalidState = errors.New("lcm: invalid life-cycle transition")
)

// Context identifies the authenticated requestor.
type Context struct {
	UserID string
	Roles  []string
}

// Guest is the anonymous context (can never write).
var Guest = Context{Roles: []string{xacml.RoleGuest}}

// Manager is the LifeCycleManager implementation.
type Manager struct {
	Store  *store.Store
	Policy *xacml.Policy
	Trail  *audit.Trail
	Bus    *events.Bus
	// Versioning enables automatic version bumps on update. The thesis
	// runs with "Versioning off" for its experiments (§3.4.4.1) but the
	// capability is part of the registry (Table 1.1).
	Versioning bool
	// Durability, when non-nil, write-ahead-logs every mutation before it
	// is applied (see the Durability interface). A nil value keeps the
	// manager purely in-memory: the same sequence without the append.
	Durability Durability
	// Log, when non-nil, receives a structured debug record per
	// life-cycle event (kind, actor, object count).
	Log *slog.Logger

	mu sync.Mutex // the write bracket of a manager without Durability
}

// New wires a manager over the given store with default policy; trail and
// bus may be nil (then auditing/notification are skipped).
func New(s *store.Store, policy *xacml.Policy, trail *audit.Trail, bus *events.Bus) *Manager {
	if policy == nil {
		policy = xacml.DefaultPolicy()
	}
	return &Manager{Store: s, Policy: policy, Trail: trail, Bus: bus}
}

func (m *Manager) authorize(ctx Context, action xacml.Action, o rim.Object) error {
	req := xacml.Request{
		SubjectID:     ctx.UserID,
		SubjectRoles:  ctx.Roles,
		Action:        action,
		ResourceType:  o.Base().ObjectType.Short(),
		ResourceOwner: o.Base().Owner,
	}
	if err := m.Policy.Authorize(req); err != nil {
		return fmt.Errorf("%w: %v", ErrDenied, err)
	}
	return nil
}

// write is one computed registry write: the mutation to log and apply, and
// what the bus and the debug log are told once it is applied.
type write struct {
	Mutation
	kind rim.EventType // the life-cycle event; "" for a direct or content write, which has none
	user string
	objs []rim.Object // what the bus publishes
}

// event computes the write for one life-cycle event over objs: their
// post-state (or, for a removal, their ids) with the audit event last, so
// the trail is logged, replayed and shipped with what it describes.
func (m *Manager) event(kind rim.EventType, ctx Context, objs ...rim.Object) write {
	ids := make([]string, len(objs))
	for i, o := range objs {
		ids[i] = o.Base().ID
	}
	w := write{Mutation: Mutation{Op: string(kind)}, kind: kind, user: ctx.UserID, objs: objs}
	puts := objs
	if kind == rim.EventDeleted {
		w.Deletes, puts = ids, nil
	}
	w.Puts = make([]store.Entry, len(puts), len(puts)+1)
	for i, o := range puts {
		w.Puts[i].Object = o
	}
	if m.Trail != nil {
		w.Puts = append(w.Puts, store.Entry{Object: m.Trail.Event(kind, ctx.UserID, ids...)})
	}
	return w
}

// do runs one registry operation. compute reads the store and works out
// what changes — validation, authorization, cascades, the audit event —
// and changes nothing; commit then checks, logs and applies each write it
// returns, in that order and from there alone, so the store is a replay of
// the log by construction and whatever refuses a write refuses it before
// anything is logged. A logging failure is returned, so the operation is
// not acknowledged. The writes that were applied are announced after the
// write bracket is released, in log order and before do returns: a
// subscriber that is slow to answer holds up the writer whose change it
// matched, and no other.
func (m *Manager) do(compute func() ([]write, error)) error {
	applied, err := m.commit(compute)
	for _, w := range applied {
		if w.kind == "" {
			continue
		}
		if m.Bus != nil {
			m.Bus.Publish(w.kind, w.objs...)
		}
		if m.Log != nil {
			m.Log.Debug("lifecycle event",
				"event", string(w.kind), "user", w.user, "objects", len(w.objs))
		}
	}
	return err
}

// commit runs compute inside the write bracket and logs and applies the
// writes it returns, returning those that were applied. Admit replaces
// each write's puts with the copies the store will hold before anything is
// logged, so the record encodes exactly the objects Apply stores.
func (m *Manager) commit(compute func() ([]write, error)) ([]write, error) {
	if m.Durability != nil {
		if err := m.Durability.BeginWrite(); err != nil {
			return nil, fmt.Errorf("lcm: %w", err)
		}
		defer m.Durability.EndWrite()
	} else {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	writes, err := compute()
	if err != nil {
		return nil, err
	}
	for _, w := range writes {
		if err := store.Admit(w.Puts); err != nil {
			return nil, fmt.Errorf("lcm: %s: %w", w.Op, err)
		}
	}
	for i := range writes {
		w := &writes[i]
		if m.Durability != nil {
			if err := m.Durability.Commit(&w.Mutation); err != nil {
				return writes[:i], fmt.Errorf("lcm: %s not durable: %w", w.Op, err)
			}
		}
		m.Store.Apply(w.Change)
	}
	return writes, nil
}

// validator is satisfied by every concrete rim class.
type validator interface{ Validate() error }

// SubmitObjects stores new objects, stamping the submitter as owner. All
// objects are validated first; submission is all-or-nothing against
// validation and authorization, mirroring a transactional
// SubmitObjectsRequest.
func (m *Manager) SubmitObjects(ctx Context, objs ...rim.Object) error {
	return m.submitObjects(ctx, objs...)
}

// submitObjects is the shared implementation behind SubmitObjects and
// SubmitObjectsCtx.
func (m *Manager) submitObjects(ctx Context, objs ...rim.Object) error {
	return m.do(func() ([]write, error) {
		batch := make(map[string]bool, len(objs))
		for _, o := range objs {
			b := o.Base()
			if b.Owner == "" {
				b.Owner = ctx.UserID
			}
			if b.Status == "" {
				b.Status = rim.StatusSubmitted
			}
			if v, ok := o.(validator); ok {
				if err := v.Validate(); err != nil {
					return nil, fmt.Errorf("lcm: submit: %w", err)
				}
			}
			if err := m.authorize(ctx, xacml.ActionSubmit, o); err != nil {
				return nil, err
			}
			if batch[b.ID] || m.Store.Has(b.ID) {
				return nil, fmt.Errorf("lcm: submit: %w: %s", store.ErrExists, b.ID)
			}
			batch[b.ID] = true
		}
		return []write{m.event(rim.EventCreated, ctx, objs...)}, nil
	})
}

// UpdateObjects replaces previously submitted objects. The stored owner
// and status are preserved; with Versioning on, the version name's minor
// component is incremented and a Versioned event recorded.
func (m *Manager) UpdateObjects(ctx Context, objs ...rim.Object) error {
	return m.updateObjects(ctx, objs...)
}

// updateObjects is the shared implementation behind UpdateObjects and
// UpdateObjectsCtx.
func (m *Manager) updateObjects(ctx Context, objs ...rim.Object) error {
	return m.do(func() ([]write, error) {
		for _, o := range objs {
			b := o.Base()
			existing, err := m.Store.Get(b.ID)
			if err != nil {
				return nil, fmt.Errorf("lcm: update: %w", err)
			}
			if err := m.authorize(ctx, xacml.ActionUpdate, existing); err != nil {
				return nil, err
			}
			// Preserve server-controlled metadata.
			b.Owner = existing.Base().Owner
			b.Status = existing.Base().Status
			b.Version = existing.Base().Version
			if m.Versioning {
				b.Version.VersionName = bumpVersion(b.Version.VersionName)
			}
			if v, ok := o.(validator); ok {
				if err := v.Validate(); err != nil {
					return nil, fmt.Errorf("lcm: update: %w", err)
				}
			}
		}
		writes := []write{m.event(rim.EventUpdated, ctx, objs...)}
		if m.Versioning {
			writes = append(writes, m.event(rim.EventVersioned, ctx, objs...))
		}
		return writes, nil
	})
}

// bumpVersion increments the minor component of "major.minor"; unparseable
// versions restart at "1.1".
func bumpVersion(v string) string {
	parts := strings.Split(v, ".")
	if len(parts) == 2 {
		if minor, err := strconv.Atoi(parts[1]); err == nil {
			return parts[0] + "." + strconv.Itoa(minor+1)
		}
	}
	return "1.1"
}

// setStatus drives one life-cycle transition for a batch of ids.
func (m *Manager) setStatus(ctx Context, action xacml.Action, kind rim.EventType, want rim.Status, allowedFrom []rim.Status, ids ...string) error {
	return m.do(func() ([]write, error) {
		var changed []rim.Object
		for _, id := range ids {
			o, err := m.Store.Get(id)
			if err != nil {
				return nil, fmt.Errorf("lcm: %s: %w", kind, err)
			}
			if err := m.authorize(ctx, action, o); err != nil {
				return nil, err
			}
			from := o.Base().Status
			ok := false
			for _, s := range allowedFrom {
				if from == s {
					ok = true
					break
				}
			}
			if !ok {
				return nil, fmt.Errorf("%w: %s -> %s for %s", ErrInvalidState, from, want, id)
			}
			o.Base().Status = want
			changed = append(changed, o)
		}
		return []write{m.event(kind, ctx, changed...)}, nil
	})
}

// ApproveObjects moves Submitted (or re-approves Deprecated via
// undeprecate) objects to Approved.
func (m *Manager) ApproveObjects(ctx Context, ids ...string) error {
	return m.setStatus(ctx, xacml.ActionApprove, rim.EventApproved, rim.StatusApproved,
		[]rim.Status{rim.StatusSubmitted, rim.StatusApproved}, ids...)
}

// DeprecateObjects moves Approved objects to Deprecated, preventing new
// references while keeping existing ones resolvable (Fig. 1.19).
func (m *Manager) DeprecateObjects(ctx Context, ids ...string) error {
	return m.setStatus(ctx, xacml.ActionDeprecate, rim.EventDeprecated, rim.StatusDeprecated,
		[]rim.Status{rim.StatusApproved, rim.StatusSubmitted}, ids...)
}

// UndeprecateObjects reverses a deprecation.
func (m *Manager) UndeprecateObjects(ctx Context, ids ...string) error {
	return m.setStatus(ctx, xacml.ActionDeprecate, rim.EventUndeprecated, rim.StatusApproved,
		[]rim.Status{rim.StatusDeprecated}, ids...)
}

// RemoveObjects deletes objects and cascades: an Organization's offered
// Services are deleted with it, and associations touching any removed
// object are removed too.
func (m *Manager) RemoveObjects(ctx Context, ids ...string) error {
	return m.do(func() ([]write, error) {
		// Expand the target set by cascades first so authorization covers
		// every object actually removed.
		seen := make(map[string]bool)
		var removed []rim.Object
		add := func(id string) error {
			if seen[id] {
				return nil
			}
			o, err := m.Store.Get(id)
			if err != nil {
				return err
			}
			seen[id] = true
			removed = append(removed, o)
			return nil
		}
		for _, id := range ids {
			if err := add(id); err != nil {
				return nil, fmt.Errorf("lcm: remove: %w", err)
			}
		}
		// Cascade Organization -> offered Services.
		for i := 0; i < len(removed); i++ {
			o := removed[i]
			if o.Base().ObjectType == rim.TypeOrganization {
				for _, a := range m.Store.AssociationsFrom(o.Base().ID) {
					if a.AssociationType != rim.AssocOffersService {
						continue
					}
					if err := add(a.TargetID); err != nil && !errors.Is(err, store.ErrNotFound) {
						return nil, fmt.Errorf("lcm: remove cascade: %w", err)
					}
				}
			}
		}
		// Cascade: associations dangling from any removed object.
		for i := 0; i < len(removed); i++ {
			id := removed[i].Base().ID
			for _, a := range append(m.Store.AssociationsFrom(id), m.Store.AssociationsTo(id)...) {
				if err := add(a.ID); err != nil && !errors.Is(err, store.ErrNotFound) {
					return nil, fmt.Errorf("lcm: remove cascade: %w", err)
				}
			}
		}
		// Authorize everything before deleting anything.
		for _, o := range removed {
			if err := m.authorize(ctx, xacml.ActionRemove, o); err != nil {
				return nil, err
			}
		}
		return []write{m.event(rim.EventDeleted, ctx, removed...)}, nil
	})
}

// AddSlots adds (or replaces) slots on one object.
func (m *Manager) AddSlots(ctx Context, id string, slots ...rim.Slot) error {
	return m.editOne(ctx, "addSlots", id, func(b *rim.RegistryObject) error {
		for _, s := range slots {
			if s.Name == "" {
				return fmt.Errorf("lcm: addSlots: slot without name")
			}
			b.SetSlot(s.Name, s.Values...)
		}
		return nil
	})
}

// RemoveSlots deletes named slots from one object.
func (m *Manager) RemoveSlots(ctx Context, id string, names ...string) error {
	return m.editOne(ctx, "removeSlots", id, func(b *rim.RegistryObject) error {
		for _, n := range names {
			b.RemoveSlot(n)
		}
		return nil
	})
}

// editOne is an Updated event over one stored object as edit leaves it.
func (m *Manager) editOne(ctx Context, op, id string, edit func(*rim.RegistryObject) error) error {
	return m.do(func() ([]write, error) {
		o, err := m.Store.Get(id)
		if err != nil {
			return nil, fmt.Errorf("lcm: %s: %w", op, err)
		}
		if err := m.authorize(ctx, xacml.ActionUpdate, o); err != nil {
			return nil, err
		}
		if err := edit(o.Base()); err != nil {
			return nil, err
		}
		return []write{m.event(rim.EventUpdated, ctx, o)}, nil
	})
}

// RelocateObjects retargets the Home registry of the given objects — the
// RelocateObjectsRequestProtocol (§2.2.3).
func (m *Manager) RelocateObjects(ctx Context, homeURL string, ids ...string) error {
	return m.do(func() ([]write, error) {
		var moved []rim.Object
		for _, id := range ids {
			o, err := m.Store.Get(id)
			if err != nil {
				return nil, fmt.Errorf("lcm: relocate: %w", err)
			}
			if err := m.authorize(ctx, xacml.ActionRelocate, o); err != nil {
				return nil, err
			}
			o.Base().Home = homeURL
			moved = append(moved, o)
		}
		return []write{m.event(rim.EventRelocated, ctx, moved...)}, nil
	})
}
