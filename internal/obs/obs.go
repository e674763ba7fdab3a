// Package obs is the pipeline's unified observability layer: a
// stdlib-only registry of named counters, gauges and fixed-bucket
// histograms that every component — probe monitors, the delta
// transport, the store, the wizard — reports through, replacing the
// ad-hoc per-struct atomic counters that used to be readable only via
// scattered accessor methods.
//
// The design rule is "pay at registration, not at increment": a
// component binds its metric pointers once at construction
// (Registry.Counter and friends are get-or-create by name) and the
// hot path then touches a single padded atomic — no map lookup, no
// lock, no allocation. The wizard's answer fast path and the
// transmitter's idle-epoch skip both stay at their pre-obs allocation
// counts with instrumentation live; alloc-pin tests enforce it.
//
// A nil *Registry is fully usable: every constructor method on it
// returns a live but detached metric (and GaugeFunc is a no-op), so
// library code can bind unconditionally and tests that pass no
// registry cost nothing. Components running without a registry behave
// exactly as before, just with invisible metrics.
//
// Snapshot renders the registry into plain maps for the HTTP debug
// endpoint (JSON and plaintext), experiment tables and bench
// recordings. Snapshots are per-metric atomic, not globally
// consistent: each value is read once, but two counters incremented
// together may be caught one-apart. Readers needing an ordering
// invariant across two counters (the wizard's rejected ≤ handled)
// must read them in the order that makes the invariant hold; see
// wizard.Stats.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The value is padded
// out to its own cache line so two hot counters registered together
// (a transmitter's deltas and skips, say) never false-share.
type Counter struct {
	v atomic.Uint64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 (a level, not a rate): a mirrored
// database version, a table size, an epoch lag.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets: counts[i] holds
// observations v ≤ bounds[i], and the final bucket holds everything
// above the last bound. Observe is lock-free and allocation-free; the
// bucket scan is linear, which beats binary search at the ≤16 bucket
// sizes latency and lag tracking use.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Uint64 // len(bounds)+1; last = overflow
	sum     atomic.Int64
	count   atomic.Uint64
}

// NewHistogram builds a detached histogram with the given upper
// bounds, which must be sorted ascending. Empty bounds yield a
// single-bucket (count-only) histogram.
func NewHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count reports how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the running total of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Snapshot renders the histogram to plain values — the per-histogram
// form of Registry.Snapshot, for callers (benches, tests) that hold
// the histogram itself.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Sum:    h.Sum(),
		Count:  h.Count(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// LatencyBuckets are the default request-latency bounds in
// nanoseconds: 1µs to 1s, roughly ×5 per step. The wizard's answer
// path sits in the low microseconds when memoized and the low
// milliseconds when a distributed pull precedes matching, so the
// range brackets both regimes.
var LatencyBuckets = []int64{
	1_000, 5_000, 25_000, 100_000, 500_000,
	2_500_000, 10_000_000, 50_000_000, 250_000_000, 1_000_000_000,
}

// LagBuckets are the default epoch-lag bounds, in database versions:
// how far a mirror's applied version trailed the transmitter's head
// when an epoch arrived. 0 is the steady state (every delta applied
// as it lands); the powers of four cover catch-up after a partition.
var LagBuckets = []int64{0, 1, 4, 16, 64, 256, 1024, 4096}

// BatchBuckets are the default datagrams-per-syscall bounds for the
// batched datagram plane (internal/netbatch): 1 is the ping-pong
// floor, 64 the netbatch.MaxBatch ceiling, powers of two between. A
// histogram whose mass sits at 1 means batching is configured but the
// traffic never queues deep enough to amortise a syscall.
var BatchBuckets = []int64{1, 2, 4, 8, 16, 32, 64}

// QueueDelayBuckets are the default ingress-sojourn bounds in
// nanoseconds for the overload plane: dense around the CoDel target
// region (1–50ms) so the p99 the bench gates bound falls in a
// measured bucket, with a tail out to a second for the unprotected
// collapse curve. The bounds under 100µs resolve the sojourn of a
// queue that is not overloaded, a few µs, whose median would
// otherwise read as the lowest bound.
var QueueDelayBuckets = []int64{
	2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
	10_000_000, 20_000_000, 50_000_000, 100_000_000,
	250_000_000, 1_000_000_000,
}

// Registry is a namespace of metrics. The zero value is not usable;
// call NewRegistry. All methods are safe for concurrent use, and all
// are safe on a nil receiver (returning detached metrics), so
// components bind unconditionally from an optional registry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		hists:      make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Two
// components asking for the same name share one counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return new(Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := new(Counter)
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := new(Gauge)
	r.gauges[name] = g
	return g
}

// GaugeFunc registers a read-only gauge computed at snapshot time —
// the idiom for values something else already maintains (a store's
// version counter, a cache's length). Re-registering a name replaces
// the function. On a nil registry it is a no-op.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. An existing histogram wins: its original
// bounds are kept and the argument is ignored.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// HistogramSnapshot is one histogram rendered to plain values.
// Counts has len(Bounds)+1 entries; the last is the overflow bucket.
type HistogramSnapshot struct {
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Sum    int64    `json:"sum"`
	Count  uint64   `json:"count"`
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket
// counts: the upper bound of the bucket where the cumulative count
// crosses q×total. Values landing in the overflow bucket report twice
// the last bound — a deliberately conservative over-estimate, since
// the histogram cannot see how far past the last bound they went. An
// empty histogram reports 0.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 || len(h.Counts) == 0 {
		return 0
	}
	rank := uint64(q * float64(h.Count))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			break
		}
	}
	if len(h.Bounds) == 0 {
		return h.Sum / int64(h.Count)
	}
	return 2 * h.Bounds[len(h.Bounds)-1]
}

// Snapshot is the whole registry rendered to plain maps, the unit the
// debug endpoint serves and experiments record next to BENCH numbers.
// Function gauges are evaluated into Gauges alongside the set ones.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot reads every metric once. On a nil registry it returns an
// empty (but non-nil-map) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	// Copy the name→metric tables under the lock, read values outside
	// it: a gauge function may itself take locks (a store read) and
	// must not nest under the registry's.
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	fns := make(map[string]func() int64, len(r.gaugeFuncs))
	for n, fn := range r.gaugeFuncs {
		fns[n] = fn
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()
	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	for n, fn := range fns {
		s.Gauges[n] = fn()
	}
	for n, h := range hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON with sorted keys
// (encoding/json sorts map keys), the machine-readable form the
// debug endpoint serves and bench_schema.py checks.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText writes the snapshot as sorted "name value" lines, with
// histograms expanded into cumulative le-labelled buckets — the
// at-a-glance form for curl without jq.
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", n, s.Gauges[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		cum := uint64(0)
		for i, c := range h.Counts {
			cum += c
			label := "+Inf"
			if i < len(h.Bounds) {
				label = fmt.Sprintf("%d", h.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, label, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", n, h.Sum, n, h.Count); err != nil {
			return err
		}
	}
	return nil
}
