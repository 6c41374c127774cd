package constraint

import (
	"fmt"
	"sync"
	"testing"
)

const cachedDesc = "Adder <constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>"

// TestCacheHitAndMiss: every lookup parses afresh and says so, a parse
// error included, and only the miss counter moves.
func TestCacheHitAndMiss(t *testing.T) {
	var c Cache
	first, cached, err := c.FromDescription("svc-1", cachedDesc)
	if err != nil || cached {
		t.Fatalf("first parse: cached=%v, %v", cached, err)
	}
	if first == nil || first.CPULoad == nil || first.CPULoad.Value != 1.0 {
		t.Fatalf("first parse = %v", first)
	}
	second, cached, err := c.FromDescription("svc-1", cachedDesc)
	if err != nil || cached || second == first || second.CPULoad.Value != 1.0 {
		t.Fatalf("second parse = %v, cached=%v, %v; want a fresh parse", second, cached, err)
	}
	bad := "<constraint><cpuLoad>garbage</cpuLoad></constraint>"
	for i := 0; i < 2; i++ {
		if _, cached, err := c.FromDescription("svc-2", bad); err == nil || cached {
			t.Fatalf("parse %d of a bad block: cached=%v, %v; want a parse error", i, cached, err)
		}
	}
	if h, m := c.Hits.Value(), c.Misses.Value(); h != 0 || m != 4 {
		t.Fatalf("hits=%d misses=%d, want 0/4", h, m)
	}
}

func TestCacheDescriptionChangeReparses(t *testing.T) {
	var c Cache
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

func TestCacheNilAndAnonymousFallThrough(t *testing.T) {
	var nilCache *Cache
	parsed, cached, err := nilCache.FromDescription("svc-1", cachedDesc)
	if err != nil || parsed == nil || cached {
		t.Fatalf("nil cache parse = %v, cached=%v, %v", parsed, cached, err)
	}

	var c Cache
	if _, _, err := c.FromDescription("", cachedDesc); err != nil {
		t.Fatal(err)
	}
	if c.Misses.Value() != 0 {
		t.Fatal("an empty service id must not count")
	}
}

func TestCacheConcurrent(t *testing.T) {
	var c Cache
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
			}
		}(g)
	}
	wg.Wait()
	if got := c.Misses.Value(); got != 8*200 {
		t.Fatalf("misses = %d, want one per call", got)
	}
}
