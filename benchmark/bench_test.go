package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"smartsock/internal/status"
)

// mkWindow is a window of ops verified ops, each taking lat, over a second.
func mkWindow(ops uint64, lat time.Duration) window {
	w := window{ops: ops, dt: time.Second, cpu: time.Duration(ops) * lat}
	for i := uint64(0); i < ops; i++ {
		w.lat.add(lat)
	}
	return w
}

func TestWindowStatistics(t *testing.T) {
	// Ten windows, a burst slows three of them. The median rate is a quiet
	// window's; the percentiles and CPU per op are over every op, the slow
	// windows' included.
	p := &phase{rec: &recorder{}}
	for _, ops := range []uint64{1000, 620, 600, 640, 990, 1010, 1000, 995, 1005, 1000} {
		p.windows = append(p.windows, mkWindow(ops, time.Second/time.Duration(ops)))
		p.rec.attempted += ops
	}
	if got := p.medianRate(); got != 997.5 {
		t.Fatalf("median window rate = %v, want 997.5", got)
	}
	if got := p.all().n; got != p.rec.verified() {
		t.Fatalf("all() pooled %d latencies, want every window's %d", got, p.rec.verified())
	}
	// 1860 of 8860 ops (21 %) took about 1.6 ms: they are the p90, not the p50.
	if p50 := p.all().quantile(0.5); p50 < 0.98e6 || p50 > 1.03e6 {
		t.Fatalf("p50 over all ops = %v ns, want about 1 ms", p50)
	}
	if p90 := p.all().quantile(0.9); p90 < 1.5e6 {
		t.Fatalf("p90 over all ops = %v ns: the slow windows' ops must be in it", p90)
	}
	// Every window used a full second of CPU.
	if got, want := p.cpuPerOp(), 10e6/float64(p.rec.verified()); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("cpu per op = %v us, want %v", got, want)
	}
	// A window one slow op ran straight through has no time and no rate.
	if r := (&window{}).rate(); r != 0 {
		t.Fatalf("rate of an empty window = %v, want 0", r)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of an even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("median of nothing = %v, want 0", got)
	}
}

func TestDriveKeepsWindowsApart(t *testing.T) {
	step := func(r *recorder) {
		time.Sleep(time.Millisecond)
		if r.attempted%4 == 3 {
			r.fail("every fourth op fails")
		} else {
			r.ok(time.Millisecond)
		}
	}
	ref, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	p := drive(step, &recorder{}, ref, 4, 25*time.Millisecond)
	if len(p.windows) != 4 {
		t.Fatalf("%d windows, want 4", len(p.windows))
	}
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	if p.rec.failed == 0 || p.rec.verified()+p.rec.failed != p.rec.attempted {
		t.Fatalf("attempted %d, failed %d, verified %d do not add up", p.rec.attempted, p.rec.failed, p.rec.verified())
	}
	var ops uint64
	for i, w := range p.windows {
		ops += w.ops
		if w.lat.n != w.ops {
			t.Errorf("window %d: %d latencies for %d verified ops: failed ops must not add one", i, w.lat.n, w.ops)
		}
		// Three verified ops in four, each a millisecond or more: under 750/s.
		if r := w.rate(); r <= 0 || r > 750 {
			t.Errorf("window %d: %v ops/s, want verified ops only (0 < r <= 750)", i, r)
		}
		// 25 ms of 1 ms ops: the host reference is due twice, and its time is
		// not the window's.
		if w.ref.trips < refTrips || w.ref.trips > 3*refTrips || w.ref.dt <= 0 {
			t.Errorf("window %d: %d reference trips in %v, want one to three samples", i, w.ref.trips, w.ref.dt)
		}
		if got := w.refRate() * w.ref.speed(); math.Abs(got-w.rate()) > 1e-9*w.rate() {
			t.Errorf("window %d: refRate × speed = %v, want the wall rate %v", i, got, w.rate())
		}
	}
	if ops != p.rec.verified() {
		t.Fatalf("windows hold %d ops, the recorder verified %d", ops, p.rec.verified())
	}
}

func TestReferenceSeconds(t *testing.T) {
	// A host on which the trip costs twice the reference host's runs at half
	// its speed: ops per reference second double, a set-up's reference
	// seconds halve. Nothing sampled means no correction.
	slow := refCost{dt: 2 * refTripNS * refTrips, trips: refTrips}
	if got := slow.speed(); got != 0.5 {
		t.Fatalf("speed = %v, want 0.5", got)
	}
	if got := slow.tripNS(); got != 2*refTripNS {
		t.Fatalf("trip = %v ns, want %v", got, 2*refTripNS)
	}
	if got := (refCost{}).speed(); got != 1 {
		t.Fatalf("speed with no sample = %v, want 1", got)
	}
	w := mkWindow(500, time.Millisecond)
	w.ref = slow
	if got := w.refRate(); got != 1000 {
		t.Fatalf("500 ops/s at half speed = %v ops per reference second, want 1000", got)
	}
	// The same program on a host that halves its speed for half the run:
	// every window reads the same in reference seconds.
	p := &phase{rec: &recorder{}}
	for i := 0; i < 10; i++ {
		w := mkWindow(1000, time.Millisecond)
		w.ref = refCost{dt: refTripNS * refTrips, trips: refTrips}
		if i%2 == 1 {
			w, w.ref = mkWindow(500, 2*time.Millisecond), slow
		}
		p.windows = append(p.windows, w)
	}
	if got := p.medianRate(); got != 750 {
		t.Fatalf("median wall rate = %v, want 750", got)
	}
	if got := p.medianRefRate(); got != 1000 {
		t.Fatalf("median reference rate = %v, want 1000", got)
	}
	if got := p.ref().speed(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("speed over the phase = %v, want 2/3", got)
	}
	st := setupTimes{build: time.Second, warmup: 3 * time.Second, ref: slow}
	if got := st.refTotal(); got != 2 {
		t.Fatalf("4 s at half speed = %v reference seconds, want 2", got)
	}
}

func TestLatHistQuantiles(t *testing.T) {
	var h latHist
	if h.quantile(0.5) != 0 {
		t.Fatal("empty histogram must report 0")
	}
	// 1 µs … 100 ms, uniform: the q-quantile is q × 100 ms.
	const n = 100_000
	for i := 1; i <= n; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		want := q * n * 1e3
		if got := h.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%v = %.0f ns, want %.0f within 2 %%", q, got, want)
		}
	}
	// Bucket bounds tile the value range without gaps.
	for i := 0; i < latBuckets-1; i++ {
		_, hi := latBounds(i)
		lo, _ := latBounds(i + 1)
		if hi != lo {
			t.Fatalf("bucket %d ends at %v, bucket %d starts at %v", i, hi, i+1, lo)
		}
		if b := latBucket(int64(lo)); b != i+1 {
			t.Fatalf("value %v lands in bucket %d, want %d", lo, b, i+1)
		}
	}
	var small latHist
	small.add(5 * time.Nanosecond)
	if got := small.quantile(0.5); got < 5 || got > 6 {
		t.Fatalf("single 5 ns sample: p50 = %v", got)
	}
}

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{{5, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10_000, 0.999}, {100_000, 0.9999}, {5_000_000, 0.9999}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	op := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 50, Parent: 0},
		{Name: "a.inner", Start: 20, End: 30, Parent: 1},
		{Name: "b", Start: 30, End: 70, Parent: 0},     // overlaps a by 20
		{Name: "late", Start: 90, End: 120, Parent: 0}, // runs past its parent
	}
	want := []int64{100 - 60 - 10, 40 - 10, 10, 40, 30}
	got := selfTimes(op)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", op[i].Name, got[i], want[i])
		}
	}
}

func TestTracerFoldsOpsAndLinksParents(t *testing.T) {
	var off *tracer
	off.end(off.begin("anything")) // tracing off: no-ops on nil
	if off.selfUS("anything", 1) != 0 {
		t.Fatal("nil tracer reported time")
	}
	tr := newTracer()
	for i := 0; i < 3; i++ {
		root := tr.begin("op")
		a := tr.begin("layer.call")
		inner := tr.begin("layer.inner")
		tr.end(inner)
		tr.end(a)
		tr.end(root)
	}
	if tr.agg["op"].count != 3 || tr.agg["layer.call"].count != 3 || tr.agg["layer.inner"].count != 3 {
		t.Fatalf("span counts %+v, want 3 of each", tr.agg)
	}
	if len(tr.spans) != 9 || len(tr.stack) != 0 {
		t.Fatalf("%d spans kept, %d still open", len(tr.spans), len(tr.stack))
	}
	for i, s := range tr.spans {
		wantParent, wantOp := int32(i%3-1), uint64(i/3)
		if s.Parent != wantParent || s.Op != wantOp || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d op %d", i, s, wantParent, wantOp)
		}
	}
	var self, wall int64
	for _, a := range tr.agg {
		self += a.selfNS
	}
	for _, s := range tr.spans {
		if s.Parent < 0 {
			wall += s.End - s.Start
		}
	}
	if self != wall {
		t.Fatalf("self times sum to %d, the ops' wall time is %d", self, wall)
	}
}

// opStream renders a workload's fleet and its first ops' inputs without
// any socket: what the program under test would be handed.
func opStream(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	var b bytes.Buffer
	dump := func(fleet []status.ServerStatus) {
		for i := range fleet {
			b.Write(status.EncodeReport(&fleet[i]))
			b.WriteByte('\n')
		}
	}
	switch name {
	case "connect_lan11", "storm_lan11":
		names := make([]string, 11)
		for i := range names {
			names[i] = fmt.Sprintf("host%d:1", i)
		}
		dump(lanFleet(rand.New(rand.NewSource(seed)), names))
		for _, r := range stormMix(3) {
			fmt.Fprintf(&b, "%d %d %q\n", r.n, r.opt, r.text)
		}
	case "fleet_20k_broad":
		in := &broadInst{rng: rand.New(rand.NewSource(seed)), req: broadReq}
		in.fleet = bigFleet(in.rng, 500)
		dump(in.fleet)
		for i := 0; i < 50; i++ {
			b.Write(status.EncodeReport(in.next()))
		}
	case "fresh_1k":
		in := &freshInst{rng: rand.New(rand.NewSource(seed)), sentinel: -1}
		in.fleet = bigFleet(in.rng, 500)
		dump(in.fleet)
		for i := 0; i < 20; i++ {
			for _, s := range in.nextEpoch() {
				b.Write(status.EncodeReport(s))
			}
			fmt.Fprintf(&b, "sentinel %s\n", in.fleet[in.sentinel].Host)
		}
	default:
		t.Fatalf("no op stream for %s", name)
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := opStream(t, w.name, 7), opStream(t, w.name, 7), opStream(t, w.name, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different fleets or op streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same fleet and op stream", w.name)
		}
	}
}

func TestFreshEpochHasExactlyOneSentinel(t *testing.T) {
	in := &freshInst{rng: rand.New(rand.NewSource(3)), sentinel: -1}
	in.fleet = bigFleet(in.rng, 200)
	for e := 0; e < 50; e++ {
		if got := len(in.nextEpoch()); got != epochReports {
			t.Fatalf("epoch %d reports %d hosts, want %d", e, got, epochReports)
		}
		hot := 0
		for i := range in.fleet {
			if sentinelReq.ok(&in.fleet[i]) {
				hot++
				if i != in.sentinel {
					t.Fatalf("epoch %d: host %d is hot, the sentinel is %d", e, i, in.sentinel)
				}
			}
		}
		if hot != 1 {
			t.Fatalf("epoch %d has %d hosts over the sentinel load, want 1", e, hot)
		}
	}
}

func TestEverySeedFillsEveryStormReply(t *testing.T) {
	names := make([]string, 11)
	for i := range names {
		names[i] = fmt.Sprintf("host%d:1", i)
	}
	for seed := int64(0); seed < 200; seed++ {
		fleet := lanFleet(rand.New(rand.NewSource(seed)), names)
		for ri, r := range stormMix(3) {
			q := 0
			for i := range fleet {
				if r.ok(&fleet[i]) {
					q++
				}
			}
			if q < 5 {
				t.Fatalf("seed %d: text %d has %d qualifying hosts, Connect asks for 5", seed, ri, q)
			}
		}
	}
	// The broad text is satisfied by about four hosts in five at any seed.
	for seed := int64(0); seed < 5; seed++ {
		fleet := bigFleet(rand.New(rand.NewSource(seed)), 20000)
		q := 0
		for i := range fleet {
			if broadReq.ok(&fleet[i]) {
				q++
			}
		}
		if share := float64(q) / float64(len(fleet)); share < 0.78 || share > 0.82 {
			t.Fatalf("seed %d: %.3f of the fleet satisfies the broad text, want about 0.80", seed, share)
		}
	}
}

func TestCheckRejectsWrongReplies(t *testing.T) {
	fleet := []status.ServerStatus{
		{Host: "fast", Bogomips: 4000, CPUIdle: 0.9, Load1: 1, MemFree: 64 << 20},
		{Host: "slow", Bogomips: 2000, CPUIdle: 0.9, Load1: 1, MemFree: 64 << 20},
		{Host: "busy", Bogomips: 4000, CPUIdle: 0.05, Load1: 1, MemFree: 64 << 20},
	}
	r := broadReq
	r.n = 2
	lookup := lookupIn(fleet)
	if err := r.check([]string{"fast", "slow"}, lookup); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	for why, reply := range map[string][]string{
		"short":       {"fast"},
		"duplicate":   {"fast", "fast"},
		"unknown":     {"fast", "ghost"},
		"unsatisfied": {"fast", "busy"},
		"misranked":   {"slow", "fast"},
	} {
		if r.check(reply, lookup) == nil {
			t.Errorf("%s reply %v accepted", why, reply)
		}
	}
}

// fullSet is a set of medians with every workload and metric at 100.
func fullSet() map[string]map[string]float64 {
	set := make(map[string]map[string]float64)
	for _, w := range workloads {
		set[w.name] = make(map[string]float64)
		for _, d := range endToEnd {
			set[w.name][d.Name] = 100
		}
	}
	return set
}

func TestCompareFlagsGapsBeyondBound(t *testing.T) {
	with := func(name string, v float64) map[string]map[string]float64 {
		set := fullSet()
		set["storm_lan11"][name] = v
		return set
	}
	for _, d := range endToEnd {
		worse, better := 100*(1+d.Bound), 100/(1+d.Bound)
		if d.Better == "higher" {
			worse, better = 100*(1-d.Bound), 100/(1-d.Bound)
		}
		nudge := (worse - 100) / 10
		var out bytes.Buffer
		if compareMedians(&out, fullSet(), with(d.Name, worse-nudge), true) != 0 {
			t.Errorf("%s: a gap inside the bound was flagged:\n%s", d.Name, out.String())
		}
		if compareMedians(&out, fullSet(), with(d.Name, worse+nudge), false) != 1 {
			t.Errorf("%s: a gap beyond the bound passed", d.Name)
		}
		// Parent against change, an improvement is no failure; two sets of
		// one commit that far apart do not agree.
		if compareMedians(&out, fullSet(), with(d.Name, better-nudge), false) != 0 {
			t.Errorf("%s: -compare flagged an improvement", d.Name)
		}
		if compareMedians(&out, fullSet(), with(d.Name, better-nudge), true) != 1 {
			t.Errorf("%s: -agree passed two sets further apart than the bound", d.Name)
		}
	}
	var out bytes.Buffer
	short := fullSet()
	delete(short, "fresh_1k")
	if compareMedians(&out, fullSet(), short, false) != 1 || compareMedians(&out, short, fullSet(), false) != 1 {
		t.Error("a workload missing from one side passed")
	}
	short = fullSet()
	delete(short["fresh_1k"], "ops_per_ref_s")
	if compareMedians(&out, fullSet(), short, false) != 1 {
		t.Error("a metric missing from one side passed")
	}
}

func TestLoadMediansDropsIncorrectAndTracedRuns(t *testing.T) {
	path := t.TempDir() + "/runs.jsonl"
	for _, r := range []struct {
		v       float64
		correct bool
		trace   bool
	}{{10, true, false}, {20, true, false}, {30, true, false}, {1000, false, false}, {2000, true, true}} {
		res := &result{Correct: r.correct, Attempted: 1, Metrics: map[string]metricValue{"ops_per_ref_s": {r.v, "1/s"}},
			workload: "storm_lan11", trace: r.trace}
		if err := appendRecord(path, res); err != nil {
			t.Fatal(err)
		}
	}
	m, err := loadMedians(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["storm_lan11"]["ops_per_ref_s"]; got != 20 {
		t.Fatalf("median = %v, want 20: only the three correct untraced runs count", got)
	}
}

// TestBenchmarkJSONMatchesTables holds the hand-written BENCHMARK.json and
// the program's tables equal, and both inside the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds || len(m.Paths) != 1 || m.Paths[0] != "benchmark" ||
		fmt.Sprint(m.Command) != "[bash benchmark/run.sh]" {
		t.Errorf("command %v, paths %v, run_seconds %d", m.Command, m.Paths, m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, program has %s: %s", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, file, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: %d metrics in the file, %d in the program", kind, len(file), len(prog))
			return
		}
		for i := range prog {
			if file[i] != prog[i] {
				t.Errorf("%s metric %d: file has %+v, program has %+v", kind, i, file[i], prog[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	if len(workloads) < 2 || len(workloads) > 8 || len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Error("tables outside the contract's limits")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmoke boots each rig on a shrunken fleet and warm-up, runs a few
// hundred milliseconds of verified ops and then the traced pass, and
// checks that every declared metric is reported and nothing leaks.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		w.sizes.warmup = min(w.sizes.warmup, 40)
		w.sizes.hosts = min(w.sizes.hosts, 2000)
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(&w, 1, 0.2, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, res.note)
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}
			spans := t.TempDir() + "/spans.json"
			res, err = runWorkload(&w, 1, 0.4, true, spans)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced pass: correct=%v failed=%d: %s", res.Correct, res.Failed, res.note)
			}
			for _, d := range perLayer {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
					t.Errorf("per-layer metric %s = %+v (reported: %v)", d.Name, m, ok)
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(perLayer))
			}
			if fi, err := os.Stat(spans); err != nil || fi.Size() < 100 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}
