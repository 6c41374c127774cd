package constraint

import (
	"fmt"
	"sync"
	"testing"
)

const cachedDesc = "Adder <constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>"

func TestCacheHitAndMiss(t *testing.T) {
	c := NewCache(8)
	first, cached, err := c.FromDescription("svc-1", cachedDesc)
	if err != nil {
		t.Fatalf("first parse: %v", err)
	}
	if first == nil || first.CPULoad == nil || first.CPULoad.Value != 1.0 {
		t.Fatalf("first parse = %v", first)
	}
	second, cached2, err := c.FromDescription("svc-1", cachedDesc)
	if err != nil {
		t.Fatalf("second parse: %v", err)
	}
	if second != first || cached || !cached2 {
		t.Fatalf("warm lookup should return the cached *Constraint (cached=%v cached2=%v)", cached, cached2)
	}
	if h, m := c.Hits.Value(), c.Misses.Value(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", h, m)
	}
}

func TestCacheDescriptionChangeReparses(t *testing.T) {
	c := NewCache(8)
	v1, _, err := c.FromDescription("svc-1", "<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>")
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := c.FromDescription("svc-1", "<constraint><cpuLoad>load ls 2.0</cpuLoad></constraint>")
	if err != nil {
		t.Fatal(err)
	}
	if v1.CPULoad.Value != 1.0 || v2.CPULoad.Value != 2.0 {
		t.Fatalf("versions = %v, %v", v1.CPULoad.Value, v2.CPULoad.Value)
	}
	if c.Hits.Value() != 0 || c.Misses.Value() != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2", c.Hits.Value(), c.Misses.Value())
	}
}

func TestCacheCachesParseErrors(t *testing.T) {
	c := NewCache(8)
	bad := "<constraint><cpuLoad>garbage</cpuLoad></constraint>"
	if _, _, err := c.FromDescription("svc-1", bad); err == nil {
		t.Fatal("want parse error")
	}
	if _, _, err := c.FromDescription("svc-1", bad); err == nil {
		t.Fatal("want cached parse error")
	}
	if c.Hits.Value() != 1 {
		t.Fatalf("hits = %d, want 1 (errors are cached too)", c.Hits.Value())
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(8)
	if _, _, err := c.FromDescription("svc-1", cachedDesc); err != nil {
		t.Fatal(err)
	}
	c.Invalidate("svc-1")
	c.Invalidate("svc-1") // second drop is a no-op
	if c.Len() != 0 {
		t.Fatalf("len = %d after invalidate", c.Len())
	}
	if c.Invalidations.Value() != 1 {
		t.Fatalf("invalidations = %d, want 1", c.Invalidations.Value())
	}
	if _, _, err := c.FromDescription("svc-1", cachedDesc); err != nil {
		t.Fatal(err)
	}
	if c.Misses.Value() != 2 {
		t.Fatalf("misses = %d, want reparse after invalidate", c.Misses.Value())
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	for i := 0; i < 5; i++ {
		if _, _, err := c.FromDescription(fmt.Sprintf("svc-%d", i), cachedDesc); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() > 2 {
		t.Fatalf("len = %d, want <= 2", c.Len())
	}
	// The newest entry must have survived.
	if _, _, err := c.FromDescription("svc-4", cachedDesc); err != nil {
		t.Fatal(err)
	}
	if c.Hits.Value() != 1 {
		t.Fatalf("hits = %d, want newest entry retained", c.Hits.Value())
	}
}

func TestCacheNilAndAnonymousFallThrough(t *testing.T) {
	var nilCache *Cache
	parsed, cached, err := nilCache.FromDescription("svc-1", cachedDesc)
	if err != nil || parsed == nil || cached {
		t.Fatalf("nil cache parse = %v, cached=%v, %v", parsed, cached, err)
	}
	nilCache.Invalidate("svc-1")
	if nilCache.Len() != 0 {
		t.Fatal("nil cache Len")
	}

	c := NewCache(8)
	if _, _, err := c.FromDescription("", cachedDesc); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || c.Misses.Value() != 0 {
		t.Fatal("empty service id must bypass the cache")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("svc-%d", i%16)
				desc := fmt.Sprintf("<constraint><cpuLoad>load ls %d.0</cpuLoad></constraint>", i%3+1)
				parsed, _, err := c.FromDescription(id, desc)
				if err != nil {
					t.Errorf("parse: %v", err)
					return
				}
				if want := float64(i%3 + 1); parsed.CPULoad.Value != want {
					t.Errorf("got load %v for desc %q", parsed.CPULoad.Value, desc)
					return
				}
				if i%17 == 0 {
					c.Invalidate(id)
				}
			}
		}(g)
	}
	wg.Wait()
}
