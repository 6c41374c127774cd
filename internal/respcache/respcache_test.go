package respcache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rim"
	"repro/internal/store"
)

var testEpoch = time.Date(2011, 4, 22, 11, 0, 0, 0, time.UTC)

// fixture is a store holding one service under each name, and a cache
// built on it with the given epoch sources.
func fixture(t testing.TB, names []string, sources ...func() uint64) (*store.Store, *Cache) {
	t.Helper()
	s := store.New()
	for _, name := range names {
		if err := s.Put(rim.NewService(name, "")); err != nil {
			t.Fatal(err)
		}
	}
	return s, New(s, sources...)
}

// view resolves a service name as the discovery probe does.
func view(t testing.TB, s *store.Store, name string) store.DiscoveryView {
	t.Helper()
	v, ok := s.LookupService(name, false)
	if !ok {
		t.Fatalf("no service named %q", name)
	}
	return v
}

// put computes nothing: it leaves e on name's entry, stamped with epoch, as
// a miss that read epoch before computing e does.
func put(t testing.TB, s *store.Store, name string, e *Entry, epoch uint64) {
	t.Helper()
	v := view(t, s, name)
	old, _ := v.Answer().(*Entry)
	e.Epoch = epoch
	Put(v, old, e)
}

func TestLookupHitAndMiss(t *testing.T) {
	s, c := fixture(t, []string{"Adder"})
	now := testEpoch
	if e := c.Get(view(t, s, "Adder"), 1, 0, now); e != nil {
		t.Fatal("an entry with no answer returned one")
	}
	if e := c.Lookup(SpaceName, "Nope", 1, 0, now); e != nil {
		t.Fatal("an unknown name returned an answer")
	}
	if c.Misses.Value() != 2 {
		t.Fatalf("Misses = %d, want 2", c.Misses.Value())
	}

	put(t, s, "Adder", &Entry{Gen: 1, JSON: []byte(`{"a":1}`)}, c.Epoch())
	e := c.Get(view(t, s, "adder"), 1, 0, now)
	if e == nil {
		t.Fatal("the answer put on the entry was not returned")
	}
	if string(e.JSON) != `{"a":1}` {
		t.Fatalf("JSON = %q", e.JSON)
	}
	if got := c.Lookup(SpaceName, "ADDER", 1, 0, now); got != e {
		t.Fatal("Lookup by another case of the name missed")
	}
	if got := c.Lookup(SpaceID, view(t, s, "Adder").ID, 1, 0, now); got != e {
		t.Fatal("Lookup by id missed")
	}
	if c.Hits.Value() != 3 {
		t.Fatalf("Hits = %d, want 3", c.Hits.Value())
	}
	// StoreAt cannot say which version an answer was computed from, so it
	// leaves nothing.
	c.StoreAt(SpaceName, "Adder", &Entry{Gen: 2}, c.Epoch())
	if got := c.Get(view(t, s, "Adder"), 1, 0, now); got != e {
		t.Fatal("StoreAt replaced the answer")
	}
}

// TestSpacesAreDisjoint: a string that is one service's name and another
// service's id resolves to each service's own entry in its own space, so
// neither lookup gets the other's answer.
func TestSpacesAreDisjoint(t *testing.T) {
	s, c := fixture(t, []string{"Adder"})
	if err := s.Put(rim.NewService(view(t, s, "Adder").ID, "")); err != nil {
		t.Fatal(err)
	}
	key := view(t, s, "Adder").ID
	put(t, s, "Adder", &Entry{Gen: 1}, c.Epoch())
	if e := c.Lookup(SpaceName, key, 1, 0, testEpoch); e != nil {
		t.Fatal("SpaceName lookup found the answer of the service with that id")
	}
	if e := c.Lookup(SpaceID, key, 1, 0, testEpoch); e == nil {
		t.Fatal("SpaceID lookup missed its own service's answer")
	}
}

func TestEpochInvalidation(t *testing.T) {
	s, c := fixture(t, []string{"Adder"})
	put(t, s, "Adder", &Entry{Gen: 1}, c.Epoch())
	c.BumpEpoch()
	if e := c.Get(view(t, s, "Adder"), 1, 0, testEpoch); e != nil {
		t.Fatal("answer survived an epoch bump")
	}
	if c.Epoch() != 1 {
		t.Fatalf("Epoch = %d, want 1", c.Epoch())
	}
}

// counter is a fake change source: a count its test advances by hand.
type counter struct{ n atomic.Uint64 }

func (c *counter) read() uint64 { return c.n.Load() }

// midFlight puts an answer stamped with the epoch read before change runs,
// as a request whose decision straddles the change does, and reports
// whether it validates afterwards.
func midFlight(s *store.Store, c *Cache, change func()) bool {
	epoch := c.Epoch()
	change()
	v, _ := s.LookupService("Adder", false)
	old, _ := v.Answer().(*Entry)
	Put(v, old, &Entry{Epoch: epoch, Gen: 1})
	return c.Get(v, 1, 0, testEpoch) != nil
}

// TestBrownoutTransitionMidFlightNeverValidates: a tier transition,
// counted by a source, that lands between Epoch and Put leaves the answer
// invalid, and so does an explicit flush; an answer put after both is valid
// again.
func TestBrownoutTransitionMidFlightNeverValidates(t *testing.T) {
	var tiers counter
	s, c := fixture(t, []string{"Adder"}, tiers.read)
	if midFlight(s, c, func() { tiers.n.Add(1) }) {
		t.Fatal("an answer stamped before a tier transition validated")
	}
	if midFlight(s, c, c.BumpEpoch) {
		t.Fatal("an answer stamped before a flush validated")
	}
	if !midFlight(s, c, func() {}) {
		t.Fatal("an answer stamped after both did not validate")
	}
}

func TestStaleEpochStampNeverValidates(t *testing.T) {
	s, c := fixture(t, []string{"Adder"})
	epoch := c.Epoch()
	// A flush lands while the response is being rendered.
	c.BumpEpoch()
	put(t, s, "Adder", &Entry{Gen: 1}, epoch)
	if e := c.Get(view(t, s, "Adder"), 1, 0, testEpoch); e != nil {
		t.Fatal("an answer stamped with a pre-flush epoch validated")
	}
}

func TestGenAndTierKeying(t *testing.T) {
	s, c := fixture(t, []string{"Adder"})
	put(t, s, "Adder", &Entry{Gen: 3, Tier: 1}, c.Epoch())
	v := view(t, s, "Adder")
	if e := c.Get(v, 4, 1, testEpoch); e != nil {
		t.Fatal("answer validated across a snapshot generation change")
	}
	if e := c.Get(v, 3, 2, testEpoch); e != nil {
		t.Fatal("answer validated across a brownout tier change")
	}
	if e := c.Get(v, 3, 1, testEpoch); e == nil {
		t.Fatal("answer did not validate at its own gen/tier")
	}
}

func TestExpiry(t *testing.T) {
	s, c := fixture(t, []string{"Adder", "Timeless"})
	exp := testEpoch.Add(30 * time.Second)
	put(t, s, "Adder", &Entry{Gen: 1, Expires: exp}, c.Epoch())
	v := view(t, s, "Adder")
	if e := c.Get(v, 1, 0, exp.Add(-time.Second)); e == nil {
		t.Fatal("answer expired early")
	}
	if e := c.Get(v, 1, 0, exp); e != nil {
		t.Fatal("answer validated at its expiry instant")
	}
	// Zero Expires means no time dependence at all.
	put(t, s, "Timeless", &Entry{Gen: 1}, c.Epoch())
	if e := c.Get(view(t, s, "Timeless"), 1, 0, testEpoch.Add(1000*time.Hour)); e == nil {
		t.Fatal("zero-expiry answer did not validate far in the future")
	}
}

// TestBoundFollowsStore: answers live on the store's entries, so there is
// at most one per stored service whatever the keys asked for — every case
// of a name and the id reach one answer, an unknown key leaves none — a
// write to one service drops its answer and no other, and a deleted
// service's answer goes with it.
func TestBoundFollowsStore(t *testing.T) {
	s, c := fixture(t, []string{"svc-0", "svc-1"})
	for _, key := range []string{"svc-0", "SVC-0", "Svc-0", "svc-1"} {
		put(t, s, key, &Entry{Gen: 1}, c.Epoch())
	}
	c.StoreAt(SpaceName, "unknown", &Entry{Gen: 1}, c.Epoch())
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (one per stored service)", c.Len())
	}
	if e := c.Lookup(SpaceID, view(t, s, "svc-1").ID, 1, 0, testEpoch); e == nil {
		t.Fatal("the id missed the answer its name left")
	}

	up := rim.NewService("svc-0", "edited")
	up.ID = view(t, s, "svc-0").ID
	if err := s.Put(up); err != nil {
		t.Fatal(err)
	}
	if e := c.Get(view(t, s, "svc-0"), 1, 0, testEpoch); e != nil {
		t.Fatal("an answer survived a write to its service")
	}
	if e := c.Get(view(t, s, "svc-1"), 1, 0, testEpoch); e == nil {
		t.Fatal("a write to svc-0 dropped svc-1's answer")
	}
	s.Apply(store.Change{Deletes: []string{view(t, s, "svc-1").ID}})
	if c.Len() != 0 {
		t.Fatalf("Len = %d after the write and the delete, want 0", c.Len())
	}
}

// TestStoreSibling: a sibling replaces the answer it was copied from, under
// that answer's stamp — valid while the original would be, dead with it,
// and never put over anything else.
func TestStoreSibling(t *testing.T) {
	s, c := fixture(t, []string{"Adder"})
	v := view(t, s, "Adder")
	of := &Entry{Epoch: c.Epoch(), Gen: 1, JSON: []byte("j"), URIs: []string{"u"}}
	Put(v, nil, of)
	sib := *of
	sib.SOAP = []byte("s")
	Put(v, of, &sib)
	if e := c.Get(v, 1, 0, testEpoch); e != &sib {
		t.Fatal("the sibling did not replace its original")
	}
	if of.SOAP != nil {
		t.Fatal("the original was written to")
	}

	// The original's epoch, not the current one.
	c.BumpEpoch()
	late := sib
	Put(v, &sib, &late)
	if e := c.Get(v, 1, 0, testEpoch); e != nil {
		t.Fatal("a sibling put after a bump validates")
	}

	// Superseded originals are not resurrected.
	fresh := &Entry{Epoch: c.Epoch(), Gen: 1}
	Put(v, &late, fresh)
	stale := *of
	Put(v, of, &stale)
	if e := c.Get(v, 1, 0, testEpoch); e != fresh {
		t.Fatal("a sibling of a superseded answer replaced the newer one")
	}
}

func TestConcurrentAccess(t *testing.T) {
	names := []string{"svc-0", "svc-1", "svc-2", "svc-3"}
	s, c := fixture(t, names)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := names[g%4]
			for i := 0; i < 500; i++ {
				epoch := c.Epoch()
				v, _ := s.LookupService(name, false)
				if e := c.Get(v, 1, 0, testEpoch); e == nil {
					old, _ := v.Answer().(*Entry)
					Put(v, old, &Entry{Epoch: epoch, Gen: 1})
				} else if e.SOAP == nil {
					sib := *e
					sib.SOAP = []byte("s")
					Put(v, e, &sib)
				}
				if i%100 == 0 {
					c.BumpEpoch()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n != len(names) {
		t.Fatalf("Len = %d, want %d", n, len(names))
	}
}

func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	b.WriteString("hello")
	PutBuffer(b)
	b2 := GetBuffer()
	if b2.Len() != 0 {
		t.Fatalf("pooled buffer not reset: len = %d", b2.Len())
	}
	PutBuffer(b2)
	PutBuffer(nil) // must not panic
}

func BenchmarkLookupHit(b *testing.B) {
	s, c := fixture(b, []string{"Adder"})
	put(b, s, "Adder", &Entry{Gen: 1, JSON: []byte("{}")}, c.Epoch())
	now := testEpoch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := s.LookupService("Adder", false)
		if c.Get(v, 1, 0, now) == nil {
			b.Fatal("miss")
		}
	}
}
