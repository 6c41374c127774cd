package respcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var testEpoch = time.Date(2011, 4, 22, 11, 0, 0, 0, time.UTC)

// stored is a store that holds n services.
func stored(n int) func() int { return func() int { return n } }

func TestLookupHitAndMiss(t *testing.T) {
	c := New(stored(4))
	now := testEpoch
	if e := c.Lookup(SpaceName, "Adder", 1, 0, now); e != nil {
		t.Fatal("empty cache returned an entry")
	}
	if c.Misses.Value() != 1 {
		t.Fatalf("Misses = %d, want 1", c.Misses.Value())
	}

	epoch := c.Epoch()
	c.StoreAt(SpaceName, "Adder", &Entry{Gen: 1, JSON: []byte(`{"a":1}`)}, epoch)
	e := c.Lookup(SpaceName, "Adder", 1, 0, now)
	if e == nil {
		t.Fatal("stored entry not returned")
	}
	if string(e.JSON) != `{"a":1}` {
		t.Fatalf("JSON = %q", e.JSON)
	}
	if c.Hits.Value() != 1 {
		t.Fatalf("Hits = %d, want 1", c.Hits.Value())
	}
}

func TestSpacesAreDisjoint(t *testing.T) {
	c := New(stored(4))
	c.StoreAt(SpaceName, "k", &Entry{Gen: 1}, c.Epoch())
	if e := c.Lookup(SpaceID, "k", 1, 0, testEpoch); e != nil {
		t.Fatal("SpaceID lookup found a SpaceName entry")
	}
}

func TestEpochInvalidation(t *testing.T) {
	c := New(stored(4))
	c.StoreAt(SpaceName, "Adder", &Entry{Gen: 1}, c.Epoch())
	c.BumpEpoch()
	if e := c.Lookup(SpaceName, "Adder", 1, 0, testEpoch); e != nil {
		t.Fatal("entry survived an epoch bump")
	}
	if c.Epoch() != 1 {
		t.Fatalf("Epoch = %d, want 1", c.Epoch())
	}
}

// counter is a fake change source: a count its test advances by hand.
type counter struct{ n atomic.Uint64 }

func (c *counter) read() uint64 { return c.n.Load() }

// midFlight stores an entry stamped with the epoch read before change runs,
// as a request whose decision straddles the change does, and reports
// whether it validates afterwards.
func midFlight(c *Cache, change func()) bool {
	epoch := c.Epoch()
	change()
	c.StoreAt(SpaceName, "Adder", &Entry{Gen: 1}, epoch)
	return c.Lookup(SpaceName, "Adder", 1, 0, testEpoch) != nil
}

// TestReplicatedChangeMidFlightNeverValidates: a store change — a leader's
// write, a followed record, a bootstrap load — that lands between Epoch
// and StoreAt leaves the stored entry invalid, and an entry stored after
// it is valid again.
func TestReplicatedChangeMidFlightNeverValidates(t *testing.T) {
	var changes, tiers counter
	c := New(stored(4), changes.read, tiers.read)
	if midFlight(c, func() { changes.n.Add(1) }) {
		t.Fatal("an entry stamped before a store change validated")
	}
	if !midFlight(c, func() {}) {
		t.Fatal("an entry stamped after the change did not validate")
	}
}

// TestBrownoutTransitionMidFlightNeverValidates: the same for a tier
// transition, counted by the second source; and an explicit flush still
// invalidates with the sources at rest.
func TestBrownoutTransitionMidFlightNeverValidates(t *testing.T) {
	var changes, tiers counter
	c := New(stored(4), changes.read, tiers.read)
	if midFlight(c, func() { tiers.n.Add(1) }) {
		t.Fatal("an entry stamped before a tier transition validated")
	}
	if midFlight(c, c.BumpEpoch) {
		t.Fatal("an entry stamped before a flush validated")
	}
	if !midFlight(c, func() {}) {
		t.Fatal("an entry stamped after both did not validate")
	}
}

func TestStaleEpochStampNeverValidates(t *testing.T) {
	c := New(stored(4))
	epoch := c.Epoch()
	// A write lands while the response is being rendered.
	c.BumpEpoch()
	c.StoreAt(SpaceName, "Adder", &Entry{Gen: 1}, epoch)
	if e := c.Lookup(SpaceName, "Adder", 1, 0, testEpoch); e != nil {
		t.Fatal("entry stamped with a pre-write epoch validated")
	}
}

func TestGenAndTierKeying(t *testing.T) {
	c := New(stored(4))
	c.StoreAt(SpaceName, "Adder", &Entry{Gen: 3, Tier: 1}, c.Epoch())
	if e := c.Lookup(SpaceName, "Adder", 4, 1, testEpoch); e != nil {
		t.Fatal("entry validated across a snapshot generation change")
	}
	if e := c.Lookup(SpaceName, "Adder", 3, 2, testEpoch); e != nil {
		t.Fatal("entry validated across a brownout tier change")
	}
	if e := c.Lookup(SpaceName, "Adder", 3, 1, testEpoch); e == nil {
		t.Fatal("entry did not validate at its own gen/tier")
	}
}

func TestExpiry(t *testing.T) {
	c := New(stored(4))
	exp := testEpoch.Add(30 * time.Second)
	c.StoreAt(SpaceName, "Adder", &Entry{Gen: 1, Expires: exp}, c.Epoch())
	if e := c.Lookup(SpaceName, "Adder", 1, 0, exp.Add(-time.Second)); e == nil {
		t.Fatal("entry expired early")
	}
	if e := c.Lookup(SpaceName, "Adder", 1, 0, exp); e != nil {
		t.Fatal("entry validated at its expiry instant")
	}
	// Zero Expires means no time dependence at all.
	c.StoreAt(SpaceName, "Timeless", &Entry{Gen: 1}, c.Epoch())
	if e := c.Lookup(SpaceName, "Timeless", 1, 0, testEpoch.Add(1000*time.Hour)); e == nil {
		t.Fatal("zero-expiry entry did not validate far in the future")
	}
}

// TestBoundFollowsStore: the cache flushes when a new key would take it
// past numSpaces entries per stored service, storing again under an
// existing key never flushes, and a store that grows lets more in.
func TestBoundFollowsStore(t *testing.T) {
	var services atomic.Int64
	services.Store(2)
	c := New(func() int { return int(services.Load()) })
	for i := 0; i < 2; i++ {
		c.StoreAt(SpaceName, fmt.Sprintf("svc-%d", i), &Entry{Gen: 1}, c.Epoch())
		c.StoreAt(SpaceID, fmt.Sprintf("id-%d", i), &Entry{Gen: 1}, c.Epoch())
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (numSpaces × 2 services)", c.Len())
	}
	// Storing again under an existing key at the bound does not flush.
	c.StoreAt(SpaceName, "svc-0", &Entry{Gen: 2}, c.Epoch())
	c.StoreAt(SpaceID, "id-1", &Entry{Gen: 2}, c.Epoch())
	if c.Len() != 4 {
		t.Fatalf("Len after re-store = %d, want 4", c.Len())
	}
	// A new key at the bound flushes everything, then inserts.
	c.StoreAt(SpaceName, "svc-2", &Entry{Gen: 1}, c.Epoch())
	if c.Len() != 1 {
		t.Fatalf("Len after flush = %d, want 1", c.Len())
	}
	if e := c.Lookup(SpaceName, "svc-2", 1, 0, testEpoch); e == nil {
		t.Fatal("entry inserted after flush not found")
	}

	// The store grows to 3 services: 6 entries fit without a flush.
	services.Store(3)
	for i := 0; i < 3; i++ {
		c.StoreAt(SpaceName, fmt.Sprintf("svc-%d", i), &Entry{Gen: 1}, c.Epoch())
		c.StoreAt(SpaceID, fmt.Sprintf("id-%d", i), &Entry{Gen: 1}, c.Epoch())
	}
	if c.Len() != 6 {
		t.Fatalf("Len after growth = %d, want 6 (numSpaces × 3 services)", c.Len())
	}
	for i := 0; i < 3; i++ {
		if e := c.Lookup(SpaceName, fmt.Sprintf("svc-%d", i), 1, 0, testEpoch); e == nil {
			t.Fatalf("svc-%d was flushed below the grown bound", i)
		}
	}
	c.StoreAt(SpaceID, "id-3", &Entry{Gen: 1}, c.Epoch())
	if c.Len() != 1 {
		t.Fatalf("Len past the grown bound = %d, want 1", c.Len())
	}
}

// TestStoreSibling: a sibling replaces the entry it was copied from, under
// that entry's stamp — valid while the original would be, dead with it, and
// never stored over anything else.
func TestStoreSibling(t *testing.T) {
	c := New(stored(4))
	of := &Entry{Gen: 1, JSON: []byte("j"), URIs: []string{"u"}}
	c.StoreAt(SpaceName, "Adder", of, c.Epoch())
	sib := *of
	sib.SOAP = []byte("s")
	c.StoreSibling(SpaceName, "Adder", of, &sib)
	if e := c.Lookup(SpaceName, "Adder", 1, 0, testEpoch); e != &sib {
		t.Fatal("the sibling did not replace its original")
	}
	if of.SOAP != nil {
		t.Fatal("the original was written to")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}

	// The original's epoch, not the current one.
	c.BumpEpoch()
	late := sib
	c.StoreSibling(SpaceName, "Adder", &sib, &late)
	if e := c.Lookup(SpaceName, "Adder", 1, 0, testEpoch); e != nil {
		t.Fatal("a sibling stored after a bump validates")
	}

	// Superseded or flushed originals are not resurrected.
	fresh := &Entry{Gen: 1}
	c.StoreAt(SpaceName, "Adder", fresh, c.Epoch())
	stale := *of
	c.StoreSibling(SpaceName, "Adder", of, &stale)
	if e := c.Lookup(SpaceName, "Adder", 1, 0, testEpoch); e != fresh {
		t.Fatal("a sibling of a superseded entry replaced the newer one")
	}
	c.StoreSibling(SpaceName, "Gone", of, &stale)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (a sibling without its original stores nothing)", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(stored(32))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("svc-%d", g%4)
			for i := 0; i < 500; i++ {
				epoch := c.Epoch()
				if e := c.Lookup(SpaceName, key, 1, 0, testEpoch); e == nil {
					c.StoreAt(SpaceName, key, &Entry{Gen: 1}, epoch)
				} else if e.SOAP == nil {
					sib := *e
					sib.SOAP = []byte("s")
					c.StoreSibling(SpaceName, key, e, &sib)
				}
				if i%100 == 0 {
					c.BumpEpoch()
				}
			}
		}(g)
	}
	wg.Wait()
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
	c := New(stored(4))
	c.StoreAt(SpaceName, "Adder", &Entry{Gen: 1, JSON: []byte("{}")}, c.Epoch())
	now := testEpoch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Lookup(SpaceName, "Adder", 1, 0, now) == nil {
			b.Fatal("miss")
		}
	}
}
