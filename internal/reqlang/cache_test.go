package reqlang

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache(8)
	src := "host_cpu_free > 0.5\n"
	p1, err := c.Get(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Get(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second Get did not return the cached program")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func TestCacheCachesParseErrors(t *testing.T) {
	c := NewCache(8)
	src := "host_cpu_free >\n"
	_, err1 := c.Get(src)
	if err1 == nil {
		t.Fatal("bad requirement parsed")
	}
	_, err2 := c.Get(src)
	if err2 == nil {
		t.Fatal("cached Get lost the parse error")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1 (errors cache too)", hits, misses)
	}
}

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewCache(2)
	reqs := []string{
		"host_cpu_free > 0.1\n",
		"host_cpu_free > 0.2\n",
		"host_cpu_free > 0.3\n",
	}
	if _, err := c.Get(reqs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(reqs[1]); err != nil {
		t.Fatal(err)
	}
	// Touch reqs[0] so reqs[1] is the LRU entry, then overflow.
	if _, err := c.Get(reqs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(reqs[2]); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	// reqs[0] survives (hit), reqs[1] was evicted (miss).
	c.Get(reqs[0])
	c.Get(reqs[1])
	hits, misses := c.Stats()
	if hits != 2 || misses != 4 {
		t.Errorf("stats = %d hits / %d misses, want 2/4", hits, misses)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	src := "host_cpu_free > 0.5\n"
	p1, err := c.Get(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Get(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("disabled cache returned a shared program")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 0/2", hits, misses)
	}
	if c.Len() != 0 {
		t.Errorf("disabled cache holds %d entries", c.Len())
	}
}

func TestCachePurge(t *testing.T) {
	c := NewCache(8)
	if _, err := c.Get("host_cpu_free > 0.5\n"); err != nil {
		t.Fatal(err)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("cache holds %d entries after Purge", c.Len())
	}
	if _, err := c.Get("host_cpu_free > 0.5\n"); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Errorf("stats after purge = %d hits / %d misses, want 0/2", hits, misses)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				src := fmt.Sprintf("host_cpu_free > 0.%d\n", i%20)
				p, err := c.Get(src)
				if err != nil {
					t.Errorf("Get(%q): %v", src, err)
					return
				}
				if got := p.Source(); got != src {
					t.Errorf("program source %q, want %q", got, src)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Errorf("cache grew to %d entries, max 16", c.Len())
	}
}

// TestCacheColdRaceCompilesOnce pins the in-flight dedup: however many
// goroutines meet a cold cache together, each distinct text is
// compiled — and counted as a miss — exactly once, every other call
// is a hit, and all callers of one text share one Program.
func TestCacheColdRaceCompilesOnce(t *testing.T) {
	const goroutines, texts, rounds = 16, 4, 50
	for round := 0; round < rounds; round++ {
		c := NewCache(16)
		progs := make([]*Program, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				p, err := c.Get(fmt.Sprintf("host_cpu_free > 0.%d\n", g%texts))
				if err != nil {
					t.Error(err)
				}
				progs[g] = p
			}(g)
		}
		close(start)
		wg.Wait()
		hits, misses := c.Stats()
		if misses != texts || hits+misses != goroutines {
			t.Fatalf("round %d: %d hits / %d misses, want %d / %d", round, hits, misses, goroutines-texts, texts)
		}
		for g := texts; g < goroutines; g++ {
			if progs[g] != progs[g%texts] {
				t.Fatalf("round %d: goroutines %d and %d got different programs for one text", round, g, g%texts)
			}
		}
	}
}
