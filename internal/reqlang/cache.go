package reqlang

import (
	"container/list"
	"strings"
	"sync"

	"smartsock/internal/obs"
)

// DefaultCacheSize is the compiled-program cache bound used when a
// caller does not pick one. Template storms repeat a handful of
// requirement texts, so a few hundred entries covers every template
// plus a healthy working set of ad-hoc requirements.
const DefaultCacheSize = 256

// Cache is a bounded LRU of compiled requirement programs keyed by
// source text. The wizard answers request storms that repeat the same
// requirement (predefined templates, retried requests, fleets of
// identical clients); compiling once and sharing the immutable
// *Program across requests removes the parser from the hot path.
//
// Parse failures are cached too: a storm of the same malformed
// requirement would otherwise re-lex it on every datagram.
//
// A Cache is safe for concurrent use. Programs it returns are shared;
// they are immutable after Parse, so concurrent evaluations are safe.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List               // front = most recently used
	entries map[string]*list.Element // source text -> element

	hits   *obs.Counter // reqlang_cache_hits
	misses *obs.Counter // reqlang_cache_misses
}

// cacheEntry is one resident text. It is inserted before its text
// is compiled, so every caller racing the compile finds it and waits
// on ready instead of compiling again: one text costs one Parse — and
// one miss — however many requests arrive together.
type cacheEntry struct {
	src   string
	prog  *Program
	err   error
	done  bool          // prog/err are set; guarded by Cache.mu
	ready chan struct{} // closed once done
}

// NewCache builds a cache bounded to max compiled programs with
// detached (unregistered) hit/miss counters. A non-positive max
// disables caching entirely: Get compiles on every call (the seed
// behaviour, kept for comparison benchmarks).
func NewCache(max int) *Cache {
	return NewCacheObs(max, nil)
}

// NewCacheObs builds a cache whose hit/miss counters live in reg as
// reqlang_cache_hits / reqlang_cache_misses; a nil registry detaches
// them.
func NewCacheObs(max int, reg *obs.Registry) *Cache {
	c := &Cache{
		max:    max,
		hits:   reg.Counter("reqlang_cache_hits"),
		misses: reg.Counter("reqlang_cache_misses"),
	}
	if max > 0 {
		c.ll = list.New()
		c.entries = make(map[string]*list.Element, max)
	}
	return c
}

// Get returns the compiled program for src, parsing it exactly once
// while it stays resident: the first caller compiles, outside the
// cache lock so a storm of distinct texts does not serialise on it,
// and callers that arrive meanwhile wait for that compile and count
// as hits. Get never retains src itself (inserted keys are cloned),
// so src may alias a buffer the caller reuses.
func (c *Cache) Get(src string) (*Program, error) {
	if c == nil || c.max <= 0 {
		if c != nil {
			c.misses.Add(1)
		}
		return Parse(src)
	}
	c.mu.Lock()
	if el, ok := c.entries[src]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		prog, err, done := e.prog, e.err, e.done
		c.mu.Unlock()
		c.hits.Add(1)
		if !done {
			// The close orders the compiler's writes before these reads.
			<-e.ready
			prog, err = e.prog, e.err
		}
		return prog, err
	}
	// Clone before inserting: callers may pass a src that aliases a
	// reusable receive buffer (the wizard's zero-alloc serve path
	// does), and the map key outlives the call.
	e := &cacheEntry{src: strings.Clone(src), ready: make(chan struct{})}
	c.entries[e.src] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).src)
	}
	c.mu.Unlock()
	c.misses.Add(1)
	prog, err := Parse(e.src)
	c.mu.Lock()
	e.prog, e.err, e.done = prog, err, true
	c.mu.Unlock()
	close(e.ready)
	return prog, err
}

// Stats reports the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Value(), c.misses.Value()
}

// Len reports the number of resident compiled programs.
func (c *Cache) Len() int {
	if c == nil || c.max <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Purge drops every resident program (counters are kept). The wizard
// calls this on template reload: entries are keyed by requirement
// text, so stale entries can never be *served* after a reload — purge
// just stops dead template bodies from occupying cache slots.
func (c *Cache) Purge() {
	if c == nil || c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.entries)
}
