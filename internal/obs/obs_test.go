package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatalf("Counter not get-or-create: second lookup returned a new counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if r.Gauge("g") != g {
		t.Fatalf("Gauge not get-or-create")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	for _, v := range []int64{5, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.Sum(); got != 5+10+11+100+101+5000 {
		t.Fatalf("sum = %d", got)
	}
	want := []uint64{2, 2, 2} // ≤10, ≤100, overflow
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
	// Empty bounds: a count-only histogram with a single bucket.
	h0 := NewHistogram(nil)
	h0.Observe(3)
	if h0.Count() != 1 || h0.buckets[0].Load() != 1 {
		t.Fatalf("empty-bounds histogram did not count")
	}
}

func TestRegistryHistogramKeepsOriginalBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{1, 2})
	h2 := r.Histogram("h", []int64{9, 9, 9})
	if h != h2 {
		t.Fatalf("Histogram not get-or-create")
	}
	if len(h2.bounds) != 2 {
		t.Fatalf("existing bounds were replaced: %v", h2.bounds)
	}
}

func TestSnapshotReadsEverything(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	r.Gauge("depth").Set(-2)
	r.GaugeFunc("derived", func() int64 { return 42 })
	r.GaugeFunc("derived", func() int64 { return 43 }) // re-register replaces
	r.Histogram("lat", []int64{10}).Observe(7)

	s := r.Snapshot()
	if s.Counters["hits"] != 3 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["depth"] != -2 || s.Gauges["derived"] != 43 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	hs, ok := s.Histograms["lat"]
	if !ok || hs.Count != 1 || hs.Sum != 7 || len(hs.Counts) != 2 || hs.Counts[0] != 1 {
		t.Fatalf("histograms = %+v", s.Histograms)
	}
}

func TestNilRegistryIsDetachedButLive(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("detached counter dead")
	}
	g := r.Gauge("x")
	g.Set(9)
	if g.Value() != 9 {
		t.Fatalf("detached gauge dead")
	}
	h := r.Histogram("x", LatencyBuckets)
	h.Observe(1)
	if h.Count() != 1 {
		t.Fatalf("detached histogram dead")
	}
	r.GaugeFunc("x", func() int64 { return 1 }) // no-op, must not panic
	s := r.Snapshot()
	if s.Counters == nil || s.Gauges == nil || s.Histograms == nil {
		t.Fatalf("nil-registry snapshot has nil maps")
	}
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil-registry snapshot not empty: %+v", s)
	}
}

func TestGaugeFuncNilFnIgnored(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("x", nil)
	if got := len(r.Snapshot().Gauges); got != 0 {
		t.Fatalf("nil gauge func registered: %d gauges", got)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Gauge("b").Set(2)
	r.Histogram("c", []int64{5}).Observe(3)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v\n%s", err, buf.String())
	}
	if back.Counters["a"] != 1 || back.Gauges["b"] != 2 || back.Histograms["c"].Count != 1 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_hits").Add(2)
	r.Counter("aa_hits").Add(1)
	r.Gauge("lag").Set(3)
	h := r.Histogram("lat", []int64{10, 100})
	h.Observe(5)
	h.Observe(500)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Counters first, sorted.
	if lines[0] != "aa_hits 1" || lines[1] != "zz_hits 2" {
		t.Fatalf("counter lines wrong/unsorted:\n%s", out)
	}
	for _, want := range []string{
		"lag 3",
		`lat_bucket{le="10"} 1`,
		`lat_bucket{le="100"} 1`, // cumulative: nothing landed in (10,100]
		`lat_bucket{le="+Inf"} 2`,
		"lat_sum 505",
		"lat_count 2",
	} {
		if !strings.Contains(out, want+"\n") && !strings.HasSuffix(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteTextPropagatesWriteErrors(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c", []int64{1}).Observe(1)
	s := r.Snapshot()
	// A writer that fails after n successful writes; every Fprintf in
	// WriteText must surface the error. This snapshot produces exactly
	// five writes (counter, gauge, two buckets, sum+count).
	for n := 0; n < 5; n++ {
		if err := s.WriteText(&failAfter{n: n}); err == nil {
			t.Fatalf("failAfter(%d): error swallowed", n)
		}
	}
}

type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errWriter
	}
	f.n--
	return len(p), nil
}

var errWriter = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "sink full" }

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("shared").Inc()
				r.Gauge("level").Set(int64(j))
				r.Histogram("h", LagBuckets).Observe(int64(j % 8))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8*200 {
		t.Fatalf("shared counter = %d, want %d", got, 8*200)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	// 50 obs ≤10, 30 in (10,100], 15 in (100,1000], 5 overflow.
	for i := 0; i < 50; i++ {
		h.Observe(5)
	}
	for i := 0; i < 30; i++ {
		h.Observe(50)
	}
	for i := 0; i < 15; i++ {
		h.Observe(500)
	}
	for i := 0; i < 5; i++ {
		h.Observe(5000)
	}
	s := h.Snapshot()
	cases := []struct {
		q    float64
		want int64
	}{
		{0.25, 10},   // rank 25 lands in the first bucket
		{0.50, 10},   // rank 50 is the last ≤10 observation
		{0.51, 100},  // rank 51 crosses into (10,100]
		{0.80, 100},  // rank 80 is the last ≤100 observation
		{0.95, 1000}, // rank 95 is the last ≤1000 observation
		{0.99, 2000}, // overflow: estimated at 2× the last bound
		{1.00, 2000},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	// Empty histogram: no data, quantile is 0.
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %d, want 0", got)
	}
	h := NewHistogram([]int64{10})
	h.Observe(3)
	s := h.Snapshot()
	// Tiny q still returns the first occupied bucket (rank floors to 1).
	if got := s.Quantile(0.001); got != 10 {
		t.Fatalf("Quantile(0.001) = %d, want 10", got)
	}
	// Bound-less histogram falls back to the mean.
	h0 := NewHistogram(nil)
	h0.Observe(4)
	h0.Observe(8)
	if got := h0.Snapshot().Quantile(0.99); got != 6 {
		t.Fatalf("bound-less Quantile = %d, want mean 6", got)
	}
}

func TestQueueDelayBucketsSorted(t *testing.T) {
	for i := 1; i < len(QueueDelayBuckets); i++ {
		if QueueDelayBuckets[i] <= QueueDelayBuckets[i-1] {
			t.Fatalf("QueueDelayBuckets not strictly increasing at %d", i)
		}
	}
}

// A queue that is not overloaded holds a request for a few µs; its
// median must read as such, not as the 100µs the CoDel region starts at.
func TestQueueDelayBucketsResolveMicroseconds(t *testing.T) {
	h := NewHistogram(QueueDelayBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(3_000)
	}
	if got := h.Snapshot().Quantile(0.5); got > 5_000 {
		t.Fatalf("p50 of 3µs sojourns = %dns, want at most 5µs", got)
	}
}
