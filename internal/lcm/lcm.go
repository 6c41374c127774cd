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
	// OnWrite, when non-nil, is called after every successful mutation.
	// The registry wires it to the response cache's write epoch so no
	// preserialized answer outlives the write.
	OnWrite func()
	// Durability, when non-nil, write-ahead-logs every mutation before it
	// is acknowledged (see the Durability interface). A nil value keeps
	// the manager purely in-memory with zero overhead.
	Durability Durability
	// Log, when non-nil, receives a structured debug record per
	// successful mutation (kind, actor, object count).
	Log *slog.Logger
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

// record finishes one acknowledged mutation: audit, write-ahead log,
// cache invalidation, event publication. A durability failure is returned
// so the operation is not acknowledged to the client.
func (m *Manager) record(kind rim.EventType, ctx Context, objs ...rim.Object) error {
	ids := make([]string, len(objs))
	for i, o := range objs {
		ids[i] = o.Base().ID
	}
	var ev *rim.AuditableEvent
	if m.Trail != nil {
		ev = m.Trail.Record(kind, ctx.UserID, ids...)
	}
	if m.Durability != nil {
		mut := Mutation{Op: string(kind)}
		if kind == rim.EventDeleted {
			mut.Deletes = ids
		} else {
			mut.Puts = append(mut.Puts, objs...)
		}
		// The audit event is itself a stored object; log it with the
		// mutation so the trail survives recovery too.
		if ev != nil {
			mut.Puts = append(mut.Puts, ev)
		}
		if err := m.commit(mut); err != nil {
			return err
		}
	}
	if m.OnWrite != nil {
		m.OnWrite()
	}
	if m.Bus != nil {
		m.Bus.Publish(kind, objs...)
	}
	if m.Log != nil {
		m.Log.Debug("lifecycle event",
			"event", string(kind), "user", ctx.UserID, "objects", len(objs))
	}
	return nil
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
	end, err := m.beginWrite()
	if err != nil {
		return err
	}
	defer end()
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
				return fmt.Errorf("lcm: submit: %w", err)
			}
		}
		if err := m.authorize(ctx, xacml.ActionSubmit, o); err != nil {
			return err
		}
		if m.Store.Has(b.ID) {
			return fmt.Errorf("lcm: submit: %w", store.ErrExists)
		}
	}
	for _, o := range objs {
		if err := m.Store.Insert(o); err != nil {
			return fmt.Errorf("lcm: submit: %w", err)
		}
	}
	return m.record(rim.EventCreated, ctx, objs...)
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
	end, err := m.beginWrite()
	if err != nil {
		return err
	}
	defer end()
	prepared := make([]rim.Object, 0, len(objs))
	for _, o := range objs {
		b := o.Base()
		existing, err := m.Store.Get(b.ID)
		if err != nil {
			return fmt.Errorf("lcm: update: %w", err)
		}
		if err := m.authorize(ctx, xacml.ActionUpdate, existing); err != nil {
			return err
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
				return fmt.Errorf("lcm: update: %w", err)
			}
		}
		prepared = append(prepared, o)
	}
	for _, o := range prepared {
		if err := m.Store.Put(o); err != nil {
			return fmt.Errorf("lcm: update: %w", err)
		}
	}
	if err := m.record(rim.EventUpdated, ctx, prepared...); err != nil {
		return err
	}
	if m.Versioning {
		return m.record(rim.EventVersioned, ctx, prepared...)
	}
	return nil
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
	end, err := m.beginWrite()
	if err != nil {
		return err
	}
	defer end()
	var changed []rim.Object
	for _, id := range ids {
		o, err := m.Store.Get(id)
		if err != nil {
			return fmt.Errorf("lcm: %s: %w", kind, err)
		}
		if err := m.authorize(ctx, action, o); err != nil {
			return err
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
			return fmt.Errorf("%w: %s -> %s for %s", ErrInvalidState, from, want, id)
		}
		o.Base().Status = want
		changed = append(changed, o)
	}
	for _, o := range changed {
		if err := m.Store.Put(o); err != nil {
			return fmt.Errorf("lcm: %s: %w", kind, err)
		}
	}
	return m.record(kind, ctx, changed...)
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
	end, err := m.beginWrite()
	if err != nil {
		return err
	}
	defer end()
	// Expand the target set by cascades first so authorization covers
	// every object actually removed.
	targets := make(map[string]rim.Object)
	var order []string
	add := func(id string) error {
		if _, seen := targets[id]; seen {
			return nil
		}
		o, err := m.Store.Get(id)
		if err != nil {
			return err
		}
		targets[id] = o
		order = append(order, id)
		return nil
	}
	for _, id := range ids {
		if err := add(id); err != nil {
			return fmt.Errorf("lcm: remove: %w", err)
		}
	}
	// Cascade Organization -> offered Services.
	for i := 0; i < len(order); i++ {
		o := targets[order[i]]
		if o.Base().ObjectType == rim.TypeOrganization {
			for _, a := range m.Store.AssociationsFrom(o.Base().ID) {
				if a.AssociationType != rim.AssocOffersService {
					continue
				}
				if err := add(a.TargetID); err != nil && !errors.Is(err, store.ErrNotFound) {
					return fmt.Errorf("lcm: remove cascade: %w", err)
				}
			}
		}
	}
	// Cascade: associations dangling from any removed object.
	for i := 0; i < len(order); i++ {
		id := order[i]
		for _, a := range append(m.Store.AssociationsFrom(id), m.Store.AssociationsTo(id)...) {
			if err := add(a.ID); err != nil && !errors.Is(err, store.ErrNotFound) {
				return fmt.Errorf("lcm: remove cascade: %w", err)
			}
		}
	}
	// Authorize everything before deleting anything.
	for _, id := range order {
		if err := m.authorize(ctx, xacml.ActionRemove, targets[id]); err != nil {
			return err
		}
	}
	removed := make([]rim.Object, 0, len(order))
	for _, id := range order {
		if err := m.Store.Delete(id); err != nil && !errors.Is(err, store.ErrNotFound) {
			return fmt.Errorf("lcm: remove: %w", err)
		}
		removed = append(removed, targets[id])
	}
	return m.record(rim.EventDeleted, ctx, removed...)
}

// AddSlots adds (or replaces) slots on one object.
func (m *Manager) AddSlots(ctx Context, id string, slots ...rim.Slot) error {
	end, err := m.beginWrite()
	if err != nil {
		return err
	}
	defer end()
	o, err := m.Store.Get(id)
	if err != nil {
		return fmt.Errorf("lcm: addSlots: %w", err)
	}
	if err := m.authorize(ctx, xacml.ActionUpdate, o); err != nil {
		return err
	}
	for _, s := range slots {
		if s.Name == "" {
			return fmt.Errorf("lcm: addSlots: slot without name")
		}
		o.Base().SetSlot(s.Name, s.Values...)
	}
	if err := m.Store.Put(o); err != nil {
		return fmt.Errorf("lcm: addSlots: %w", err)
	}
	return m.record(rim.EventUpdated, ctx, o)
}

// RemoveSlots deletes named slots from one object.
func (m *Manager) RemoveSlots(ctx Context, id string, names ...string) error {
	end, err := m.beginWrite()
	if err != nil {
		return err
	}
	defer end()
	o, err := m.Store.Get(id)
	if err != nil {
		return fmt.Errorf("lcm: removeSlots: %w", err)
	}
	if err := m.authorize(ctx, xacml.ActionUpdate, o); err != nil {
		return err
	}
	for _, n := range names {
		o.Base().RemoveSlot(n)
	}
	if err := m.Store.Put(o); err != nil {
		return fmt.Errorf("lcm: removeSlots: %w", err)
	}
	return m.record(rim.EventUpdated, ctx, o)
}

// RelocateObjects retargets the Home registry of the given objects — the
// RelocateObjectsRequestProtocol (§2.2.3).
func (m *Manager) RelocateObjects(ctx Context, homeURL string, ids ...string) error {
	end, err := m.beginWrite()
	if err != nil {
		return err
	}
	defer end()
	var moved []rim.Object
	for _, id := range ids {
		o, err := m.Store.Get(id)
		if err != nil {
			return fmt.Errorf("lcm: relocate: %w", err)
		}
		if err := m.authorize(ctx, xacml.ActionRelocate, o); err != nil {
			return err
		}
		o.Base().Home = homeURL
		moved = append(moved, o)
	}
	for _, o := range moved {
		if err := m.Store.Put(o); err != nil {
			return fmt.Errorf("lcm: relocate: %w", err)
		}
	}
	return m.record(rim.EventRelocated, ctx, moved...)
}
