package main

import (
	"math"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// latHist is a log-linear latency histogram: 64 linear sub-buckets per
// power of two, so a bucket is at most 1.6 % wide. Storm runs record
// millions of latencies; a fixed table keeps the harness out of the
// heap it is measuring. Quantiles interpolate inside the bucket by
// rank, so they read as continuous values.
type latHist struct {
	counts [latBuckets]uint64
	n      uint64
}

const (
	latSub     = 64 // sub-buckets per octave
	latBuckets = latSub * 40
)

func latBucket(ns int64) int {
	if ns < latSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 7 // ns>>exp is in [64,128)
	idx := (exp+1)*latSub + int(ns>>uint(exp)) - latSub
	if idx >= latBuckets {
		idx = latBuckets - 1
	}
	return idx
}

// latBounds returns the half-open value range [lo, hi) of bucket i.
func latBounds(i int) (lo, hi float64) {
	if i < latSub {
		return float64(i), float64(i + 1)
	}
	exp := uint(i/latSub - 1)
	m := int64(i%latSub + latSub)
	return float64(m << exp), float64((m + 1) << exp)
}

func (h *latHist) add(d time.Duration) {
	h.counts[latBucket(int64(d))]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds (0 for an empty
// histogram).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := latBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	_, hi := latBounds(latBuckets - 1)
	return hi
}

// topPercentile is the highest percentile that still has at least ten
// samples beyond it, from the ladder 90, 99, 99.9, 99.99; the median when
// even p90 has fewer.
func topPercentile(n uint64) float64 {
	best := 0.5
	for den := uint64(10); den <= 10_000 && n/den >= 10; den *= 10 {
		best = 1 - 1/float64(den)
	}
	return best
}

// median of a copy of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// merge adds another histogram's samples.
func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// recorder accumulates what one phase of a run observed. Only verified
// ops add a latency; everything else is a failure.
type recorder struct {
	lat       *latHist // where verified ops' latencies go: the current window's
	attempted uint64
	failed    uint64
	firstErr  string
	tr        *tracer // nil with tracing off
}

func (r *recorder) ok(d time.Duration) {
	r.attempted++
	if r.lat != nil {
		r.lat.add(d)
	}
}

func (r *recorder) fail(why string) {
	r.attempted++
	r.failed++
	if r.firstErr == "" {
		r.firstErr = why
	}
}

func (r *recorder) verified() uint64 { return r.attempted - r.failed }

// cpuTime is the process's user+sys CPU so far: the generator and the
// in-process servers together.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and reads what survived.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// window is one slice of a timed phase.
type window struct {
	ops   uint64        // verified
	dt    time.Duration // wall, without the host-reference samples taken in it
	ref   refCost       // what those samples cost
	cpu   time.Duration // likewise: a sample runs on the generator's goroutine and never blocks, so its wall time is its CPU time
	steal float64       // share of the machine's CPU time the hypervisor gave to others
	lat   latHist
}

// rate is the window's verified ops per second; 0 for a window a single
// slow op ran straight through.
func (w *window) rate() float64 {
	if w.dt <= 0 {
		return 0
	}
	return float64(w.ops) / w.dt.Seconds()
}

// refRate is the window's rate in ops per reference second: what rate()
// would have been on the reference host (see hostref.go).
func (w *window) refRate() float64 { return w.rate() / w.ref.speed() }

// phase is the outcome of driving a workload for a fixed time.
type phase struct {
	rec     *recorder
	windows []window
	mallocs uint64 // over the whole phase
	bytes   uint64
}

// medianRate is the median of the windows' wall-clock rates: a burst from a
// noisy neighbour costs the windows it lands in, not the result, while
// anything the program does in most windows (a periodic resync, a GC cliff)
// stays in.
func (p *phase) medianRate() float64 { return median(p.rates()) }

// medianRefRate is the same over the windows' rates in reference seconds;
// each window is corrected by the host speed sampled inside it.
func (p *phase) medianRefRate() float64 {
	rs := make([]float64, len(p.windows))
	for i := range p.windows {
		rs[i] = p.windows[i].refRate()
	}
	return median(rs)
}

// ref is what the host reference cost over the whole phase.
func (p *phase) ref() refCost {
	var c refCost
	for i := range p.windows {
		c.add(p.windows[i].ref)
	}
	return c
}

// all pools every window's latencies: percentiles are over every verified
// op of the phase.
func (p *phase) all() *latHist {
	h := &latHist{}
	for i := range p.windows {
		h.merge(&p.windows[i].lat)
	}
	return h
}

func (p *phase) rates() []float64 {
	rs := make([]float64, len(p.windows))
	for i := range p.windows {
		rs[i] = p.windows[i].rate()
	}
	return rs
}

// steals lists each window's steal share in percent, for the run's header.
func (p *phase) steals() []float64 {
	ss := make([]float64, len(p.windows))
	for i := range p.windows {
		ss[i] = 100 * p.windows[i].steal
	}
	return ss
}

// perOp divides a whole-phase total by the verified ops.
func (p *phase) perOp(total uint64) float64 {
	if v := p.rec.verified(); v > 0 {
		return float64(total) / float64(v)
	}
	return math.NaN()
}

// cpuPerOp is the process's CPU time over the whole phase per verified op,
// in µs.
func (p *phase) cpuPerOp() float64 {
	var cpu time.Duration
	for i := range p.windows {
		cpu += p.windows[i].cpu
	}
	return p.perOp(uint64(cpu)) / 1e3
}

// drive runs step in a closed loop for n back-to-back windows of length
// win, keeping each window's ops, wall and CPU time and latencies apart,
// and samples the host reference between ops.
func drive(step func(*recorder), rec *recorder, ref *hostRef, n int, win time.Duration) *phase {
	p := &phase{rec: rec, windows: make([]window, n)}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ref.start(start)
	for i := range p.windows {
		w := &p.windows[i]
		rec.lat = &w.lat
		end := start.Add(time.Duration(i+1) * win)
		t0, c0, v0 := time.Now(), cpuTime(), rec.verified()
		s0, k0 := machineTicks()
		now := t0
		for now.Before(end) {
			step(rec)
			now = ref.pace(time.Now(), &w.ref)
		}
		w.ops, w.dt, w.cpu = rec.verified()-v0, now.Sub(t0)-w.ref.dt, cpuTime()-c0-w.ref.dt
		if s1, k1 := machineTicks(); k1 > k0 {
			w.steal = float64(s1-s0) / float64(k1-k0)
		}
	}
	rec.lat = nil
	runtime.ReadMemStats(&m1)
	p.mallocs, p.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return p
}

// machineTicks reads the first line of /proc/stat: the clock ticks every
// CPU of the machine has spent so far, and how many of them were stolen —
// the vCPU was runnable and the hypervisor ran something else. Both are 0
// where /proc is absent. A run's steal is printed beside its window rates:
// it is the one kind of interference a guest can see from inside.
func machineTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 || i > 8 { // the label; guest time is already inside user
			continue
		}
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// openFDs counts this process's descriptors; -1 where /proc is absent.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}
