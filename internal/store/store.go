// Package store is the registry's persistence layer — the role Apache Derby
// plays under freebXML (thesis §2.2.3). It keeps every ebRIM object in
// in-memory tables with secondary indexes (by type, by name, by owner, and
// association endpoints), holds the repository's content items, and owns
// the NodeState table of Figure 3.2 that the load-balancing scheme reads at
// discovery time. Snapshots (snapshot.go) stream the whole store as
// checksummed frames — the body of every checkpoint and of a follower's
// bootstrap.
//
// All methods are safe for concurrent use. Objects are deep-copied on Put
// and on Get, so callers can never alias the store's internal graph.
package store

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/constraint"
	"repro/internal/rim"
	"repro/internal/sqlq"
)

// ErrNotFound is returned when an object id does not exist.
var ErrNotFound = fmt.Errorf("store: object not found")

// ErrExists is what a submission of an id that is already stored wraps.
var ErrExists = fmt.Errorf("store: object already exists")

// Store is the in-memory registry database.
type Store struct {
	mu     sync.RWMutex
	tables // guarded by mu

	// changes counts the times the tables changed: advanced under mu by
	// Apply and Load, read lock-free by Changes.
	changes atomic.Uint64

	nodeState *NodeStateTable // immutable after New; the table locks itself
}

// tables is everything a snapshot load replaces: the objects, every index
// derived from them, and the repository content. They are one value so that
// LoadStats adopts a loaded store with a single assignment — an index added
// here cannot be left behind by a checkpoint load or a follower bootstrap.
type tables struct {
	objects map[string]rim.Object
	byType  map[rim.ObjectType]map[string]struct{}
	byOwner map[string]map[string]struct{}
	// byName indexes type → lowercase name → ids, so exact-name lookups
	// (FindOneByName, the discovery-by-name path) need not scan a type.
	byName map[rim.ObjectType]map[string]map[string]struct{}
	// Association endpoint indexes: object id -> association ids.
	assocBySource map[string]map[string]struct{}
	assocByTarget map[string]map[string]struct{}
	// services holds the discovery entry of every stored *rim.Service: its
	// view, built once when the object is indexed and never edited. A
	// re-indexed object gets a new one, so there is nothing to invalidate.
	services map[string]DiscoveryView
	// Repository content, keyed by ExtrinsicObject ContentID.
	content map[string][]byte
}

// New creates an empty store.
func New() *Store {
	return &Store{
		tables: tables{
			objects:       make(map[string]rim.Object),
			byType:        make(map[rim.ObjectType]map[string]struct{}),
			byOwner:       make(map[string]map[string]struct{}),
			byName:        make(map[rim.ObjectType]map[string]map[string]struct{}),
			assocBySource: make(map[string]map[string]struct{}),
			assocByTarget: make(map[string]map[string]struct{}),
			services:      make(map[string]DiscoveryView),
			content:       make(map[string][]byte),
		},
		nodeState: NewNodeStateTable(),
	}
}

// NodeState returns the store's NodeState table.
func (s *Store) NodeState() *NodeStateTable { return s.nodeState }

// Changes returns how many times the tables have changed. It only grows,
// and it has grown by the time a reader can see a change, so an answer
// computed from the store after reading it is stale exactly when it has
// moved since.
func (s *Store) Changes() uint64 { return s.changes.Load() }

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// Services returns the number of stored services: the bound the response
// cache sizes itself by, one answer per service.
func (s *Store) Services() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.services)
}

// Change is one mutation of the tables: what a write-ahead-log record
// carries, and what Apply makes visible to readers whole or not at all.
type Change struct {
	// Puts are full post-state objects, each replacing whatever is stored
	// under its id. They must come from Admit or from this package's
	// decoders: Apply indexes them as they are.
	Puts []rim.Object
	// Deletes are ids to remove; one that is not stored is skipped, so a
	// record also covered by a checkpoint applies harmlessly.
	Deletes []string
	// ContentPutID/Content store a repository payload, ContentDeleteID
	// removes one; "" is neither.
	ContentPutID    string
	Content         []byte
	ContentDeleteID string
}

// Admit returns deep copies of objs for a Change to carry, or says why one
// of them cannot be stored: it is nil, has no id, or holds a null where a
// nested object belongs. It is everything that can refuse a write, kept
// apart from Apply so that a writer checks before it logs and nothing can
// fail between the log and the tables.
func Admit(objs ...rim.Object) ([]rim.Object, error) {
	owned := make([]rim.Object, len(objs))
	for i, o := range objs {
		if o == nil {
			return nil, fmt.Errorf("store: nil object")
		}
		if d := defect(o); d != "" {
			return nil, fmt.Errorf("store: object %s", d)
		}
		owned[i] = rim.CloneObject(o)
	}
	return owned, nil
}

// Apply is the one place the tables change after boot: the leader's
// LifeCycleManager, log replay and a follower all end here, under one
// acquisition of the lock, so a reader sees all of a mutation or none of
// it. Removals go first — a swap of one id for itself leaves the new
// object — then the puts in order, then the content.
func (s *Store) Apply(c Change) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.changes.Add(1)
	for _, id := range c.Deletes {
		if o, ok := s.objects[id]; ok {
			s.unindexLocked(o)
			delete(s.objects, id)
		}
	}
	for _, o := range c.Puts {
		id := o.Base().ID
		if old, ok := s.objects[id]; ok {
			s.unindexLocked(old)
		}
		s.objects[id] = o
		s.indexLocked(o)
	}
	if c.ContentDeleteID != "" {
		delete(s.content, c.ContentDeleteID)
	}
	if c.ContentPutID != "" {
		s.content[c.ContentPutID] = append([]byte(nil), c.Content...)
	}
}

// ApplyEncoded is Apply for a change whose puts are still in the form a
// log record carries them, and the one place a record's bytes become
// resident objects, as DecodeFrame is for a snapshot's: the store holds
// what Admit and Apply would have left had they been handed each decoded
// object, but a graph the decoder built value by value is indexed as it is
// instead of being copied a second time. Nothing changes unless every
// envelope decodes.
func (s *Store) ApplyEncoded(puts []Envelope, c Change) error {
	c.Puts = make([]rim.Object, len(puts))
	for i, env := range puts {
		o, exact, err := decodeObject(env.Kind, env.Data)
		if err != nil {
			return err
		}
		if d := defect(o); d != "" {
			return fmt.Errorf("store: decode %s: object %s", env.Kind, d)
		}
		if !exact {
			o = rim.CloneObject(o)
		}
		c.Puts[i] = o
	}
	s.Apply(c)
	return nil
}

// Put inserts or replaces the object under its id. The object is cloned;
// later mutation of o does not affect the store. It is for the taxonomy
// seed and for fixtures: a write a registry acknowledges goes through its
// LifeCycleManager, which logs it first.
func (s *Store) Put(o rim.Object) error {
	owned, err := Admit(o)
	if err != nil {
		return err
	}
	s.Apply(Change{Puts: owned})
	return nil
}

// Get returns a deep copy of the object with the given id.
func (s *Store) Get(id string) (rim.Object, error) {
	s.mu.RLock()
	o, ok := s.objects[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return rim.CloneObject(o), nil
}

// Has reports whether id exists.
func (s *Store) Has(id string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.objects[id]
	return ok
}

func (s *Store) indexLocked(o rim.Object) {
	b := o.Base()
	addIdx(s.byType, b.ObjectType, b.ID)
	if b.Owner != "" {
		addIdx(s.byOwner, b.Owner, b.ID)
	}
	names, ok := s.byName[b.ObjectType]
	if !ok {
		names = make(map[string]map[string]struct{})
		s.byName[b.ObjectType] = names
	}
	// Unnamed objects index under "" so wildcard scans still see them.
	addIdx(names, strings.ToLower(b.Name.String()), b.ID)
	switch o := o.(type) {
	case *rim.Association:
		addIdx(s.assocBySource, o.SourceID, o.ID)
		addIdx(s.assocByTarget, o.TargetID, o.ID)
	case *rim.Service:
		s.services[o.ID] = DiscoveryView{
			ID: o.ID, Description: o.Description.String(), URIs: o.AccessURIs(),
			memo: new(atomic.Pointer[Digest]),
		}
	}
}

func (s *Store) unindexLocked(o rim.Object) {
	b := o.Base()
	delIdx(s.byType, b.ObjectType, b.ID)
	if b.Owner != "" {
		delIdx(s.byOwner, b.Owner, b.ID)
	}
	if names, ok := s.byName[b.ObjectType]; ok {
		delIdx(names, strings.ToLower(b.Name.String()), b.ID)
		if len(names) == 0 {
			delete(s.byName, b.ObjectType)
		}
	}
	switch o := o.(type) {
	case *rim.Association:
		delIdx(s.assocBySource, o.SourceID, o.ID)
		delIdx(s.assocByTarget, o.TargetID, o.ID)
	case *rim.Service:
		delete(s.services, o.ID)
	}
}

func addIdx[K comparable](m map[K]map[string]struct{}, k K, id string) {
	set, ok := m[k]
	if !ok {
		set = make(map[string]struct{})
		m[k] = set
	}
	set[id] = struct{}{}
}

func delIdx[K comparable](m map[K]map[string]struct{}, k K, id string) {
	if set, ok := m[k]; ok {
		delete(set, id)
		if len(set) == 0 {
			delete(m, k)
		}
	}
}

// ByType returns deep copies of all objects of type t, sorted by id for
// deterministic iteration. Sorting happens after the read lock is
// released so large scans don't hold up writers.
func (s *Store) ByType(t rim.ObjectType) []rim.Object {
	s.mu.RLock()
	out := s.collectLocked(s.byType[t])
	s.mu.RUnlock()
	sortByID(out)
	return out
}

// ByOwner returns deep copies of all objects owned by the given user id.
func (s *Store) ByOwner(owner string) []rim.Object {
	s.mu.RLock()
	out := s.collectLocked(s.byOwner[owner])
	s.mu.RUnlock()
	sortByID(out)
	return out
}

// collectLocked clones the objects for ids in map order; callers sort
// outside the critical section.
func (s *Store) collectLocked(ids map[string]struct{}) []rim.Object {
	out := make([]rim.Object, 0, len(ids))
	for id := range ids {
		if o, ok := s.objects[id]; ok {
			out = append(out, rim.CloneObject(o))
		}
	}
	return out
}

func sortByID(out []rim.Object) {
	sort.Slice(out, func(i, j int) bool { return out[i].Base().ID < out[j].Base().ID })
}

// All returns deep copies of every object, sorted by id.
func (s *Store) All() []rim.Object {
	s.mu.RLock()
	out := make([]rim.Object, 0, len(s.objects))
	for _, o := range s.objects {
		out = append(out, rim.CloneObject(o))
	}
	s.mu.RUnlock()
	sortByID(out)
	return out
}

// MatchLike reports whether name matches a SQL LIKE pattern (% = any run,
// _ = any single character; matching is case-insensitive as in freebXML's
// Derby collation for names).
func MatchLike(name, pattern string) bool { return sqlq.LikeMatch(name, pattern) }

// FindByName returns deep copies of objects of type t whose Name matches
// the LIKE pattern. A pattern without wildcards resolves through the name
// index; wildcard patterns walk the index's name buckets, so only matches
// are cloned, and sorting happens after the lock is released.
func (s *Store) FindByName(t rim.ObjectType, pattern string) []rim.Object {
	var out []rim.Object
	s.mu.RLock()
	if !strings.ContainsAny(pattern, "%_") {
		out = s.collectLocked(s.byName[t][strings.ToLower(pattern)])
	} else {
		lowered := strings.ToLower(pattern) // once, so LikeMatch's own folding finds nothing to do
		for name, ids := range s.byName[t] {
			if sqlq.LikeMatch(name, lowered) {
				out = append(out, s.collectLocked(ids)...)
			}
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Base().Name.String() < out[j].Base().Name.String() })
	return out
}

// FindOneByName returns the unique object of type t with exactly the given
// name (case-insensitive). It returns ErrNotFound if absent and an error if
// the name is ambiguous. The lookup is a single name-index probe, not a
// type scan.
func (s *Store) FindOneByName(t rim.ObjectType, name string) (rim.Object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, err := s.findOneByNameLocked(t, name)
	if err != nil {
		return nil, err
	}
	return rim.CloneObject(s.objects[id]), nil
}

// findOneByNameLocked resolves the id of the unique object of type t named
// name (case-insensitive). Callers hold mu.
func (s *Store) findOneByNameLocked(t rim.ObjectType, name string) (string, error) {
	ids := s.byName[t][strings.ToLower(name)]
	if len(ids) > 1 {
		return "", ambiguousNameErr(t, name)
	}
	for id := range ids {
		return id, nil
	}
	return "", notFoundByNameErr(t, name)
}

// notFoundByNameErr builds the ErrNotFound for a name lookup. Error
// construction lives off the discovery hot path.
func notFoundByNameErr(t rim.ObjectType, name string) error {
	return fmt.Errorf("%w: %s named %q", ErrNotFound, t.Short(), name)
}

// ambiguousNameErr reports a name resolving to more than one object.
func ambiguousNameErr(t rim.ObjectType, name string) error {
	return fmt.Errorf("store: name %q is ambiguous for %s", name, t.Short())
}

// AssociationsFrom returns deep copies of the associations whose source is
// the given object id.
func (s *Store) AssociationsFrom(sourceID string) []*rim.Association {
	s.mu.RLock()
	out := s.assocsLocked(s.assocBySource, sourceID)
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AssociationsTo returns deep copies of the associations whose target is
// the given object id.
func (s *Store) AssociationsTo(targetID string) []*rim.Association {
	s.mu.RLock()
	out := s.assocsLocked(s.assocByTarget, targetID)
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// assocsLocked clones the associations for key in map order; callers sort
// outside the critical section.
func (s *Store) assocsLocked(idx map[string]map[string]struct{}, key string) []*rim.Association {
	var out []*rim.Association
	for id := range idx[key] {
		if a, ok := s.objects[id].(*rim.Association); ok {
			out = append(out, a.Clone())
		}
	}
	return out
}

// DiscoveryView is the minimal projection of a Service the discovery path
// needs: id, description text (which may embed a constraint block), and the
// non-empty access URIs in stored order. A view the store returns shares
// its URIs slice with every other reader of the same service: callers must
// not write to it, sort it or return it — they copy what they serve. A
// view built by hand from these three fields is as good as a stored one,
// only its Digest is computed on every call.
type DiscoveryView struct {
	ID          string
	Description string
	URIs        []string

	// memo is where the first discovery of a stored view leaves its digest
	// for the later ones; nil on a hand-built view.
	memo *atomic.Pointer[Digest]
}

// Digest is what the balancer derives from a view's text before it can
// look at a host: the parsed constraint block, or why it does not parse,
// and the host of every access URI. It is a pure function of the view and
// immutable once built.
type Digest struct {
	// Constraint and Err are constraint.FromDescription of the description.
	Constraint *constraint.Constraint
	Err        error
	// Hosts[i] is rim.HostOfURI(URIs[i]).
	Hosts []string
}

// Digest returns the view's digest. On a stored view the first caller
// computes it and every later one — until a write replaces the entry —
// reads that result, so a description is parsed once per version, and only
// if somebody discovers the service; callers racing to be first each
// compute one and all but one are discarded.
func (v DiscoveryView) Digest() *Digest {
	if v.memo == nil {
		return newDigest(v.Description, v.URIs)
	}
	if d := v.memo.Load(); d != nil {
		return d
	}
	v.memo.CompareAndSwap(nil, newDigest(v.Description, v.URIs))
	return v.memo.Load()
}

// newDigest is the one place a description is parsed and a URI's host
// extracted on behalf of discovery.
func newDigest(description string, uris []string) *Digest {
	d := &Digest{Hosts: make([]string, len(uris))}
	d.Constraint, _, d.Err = constraint.FromDescription(description)
	for i, uri := range uris {
		d.Hosts[i] = rim.HostOfURI(uri)
	}
	return d
}

// ServiceView returns the discovery view of the service with the given id.
// It returns ErrNotFound for unknown ids and an error when the object is
// not a Service.
func (s *Store) ServiceView(id string) (DiscoveryView, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.viewLocked(id)
}

// notFoundIDErr builds the ErrNotFound for an id lookup, off the hot path.
func notFoundIDErr(id string) error {
	return fmt.Errorf("%w: %s", ErrNotFound, id)
}

// ServiceViewByName returns the discovery view of the unique service with
// the given name (case-insensitive), resolved through the name index.
func (s *Store) ServiceViewByName(name string) (DiscoveryView, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, err := s.findOneByNameLocked(rim.TypeService, name)
	if err != nil {
		return DiscoveryView{}, err
	}
	return s.viewLocked(id)
}

func (s *Store) viewLocked(id string) (DiscoveryView, error) {
	if v, ok := s.services[id]; ok {
		return v, nil
	}
	if _, ok := s.objects[id]; ok {
		return DiscoveryView{}, notServiceErr(id)
	}
	return DiscoveryView{}, notFoundIDErr(id)
}

// notServiceErr reports a non-service object on the discovery path.
func notServiceErr(id string) error {
	return fmt.Errorf("store: %s is not a service", id)
}

// GetContent retrieves a repository payload.
func (s *Store) GetContent(contentID string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.content[contentID]
	if !ok {
		return nil, fmt.Errorf("%w: content %s", ErrNotFound, contentID)
	}
	return append([]byte(nil), data...), nil
}
