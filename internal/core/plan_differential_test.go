package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"smartsock/internal/index"
	"smartsock/internal/obs"
	"smartsock/internal/proto"
	"smartsock/internal/reqlang"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// The selection's core invariant: for any table history — puts,
// refreshes, expiries, tombstone churn, all shipped to the wizard's
// mirror through real wire deltas — the one evaluation loop gives the
// same answer whichever candidate source feeds it. A Select answered
// from the per-field indexes is byte-identical to the same Select
// answered by testing the constraints record by record, agrees with
// the planner-less walk of every record on the servers chosen, and
// all three agree with the retained pre-top-n reference
// (reference_test.go: evaluate everything, append every qualifier,
// stable-sort, take n), whose Decisions Explain must reproduce byte for
// byte. These tests drive that invariant with seeded random histories
// and a requirement corpus covering the planner's whole decision
// surface and the reply order's (preferred and denied lists, score
// ties, NaN scores), shrinking failures to a minimal op sequence.

// diffCorpus exercises every planner verdict: selective and broad
// index-resolvable prefixes, flips, conjunctions, equality, security
// and network variables, user parameters, scores, hard errors, typos,
// and programs the planner must refuse.
var diffCorpus = []string{
	"host_system_load1 < 2\n",
	"2 > host_system_load1\n",
	"host_cpu_free > 0.7\n",
	"host_memory_free > 3\n",
	"host_system_load1 < 3 && host_cpu_free > 0.25\n",
	"host_system_load1 == 2\n",
	"host_system_load1 >= 10\n",
	"host_bogomips > 1050\nhost_cpu_free * 100\n",
	"host_system_load1 < 3\nhost_memory_free > 1\nhost_system_load1 * -1\n",
	"host_security_level >= 2\n",
	"host_security_level >= 1\nhost_system_load1 < 3\n",
	"host_system_load1 < 4\nuser_denied_host1 = \"diff-03\"\n",
	"host_system_load1 < 4\nuser_preferred_host1 = \"diff-05\"\n",
	"monitor_network_delay < 100\nhost_system_load1 < 4\n",
	"host_system_load1 < 3\nmonitor_network_bw > 0\n",
	"host_system_load1 / 0 > 1\n",
	"host_nonexistent_var < 2\n",
	"host_system_load1 + 1 < 3\n",
	// Reply order: several preferred slots (listed out of host order, one
	// naming a host that may not qualify), denied and preferred together,
	// scores that tie across the fleet, and scores that are NaN for some
	// hosts (pow of a negative base) or for all of them.
	"host_system_load1 < 4\nuser_preferred_host2 = \"diff-02\"\nuser_preferred_host1 = \"diff-09\"\nuser_denied_host1 = \"diff-04\"\n",
	"user_preferred_host1 = \"diff-07\"\nuser_preferred_host2 = \"diff-01\"\nhost_system_load1 * 10\n",
	"host_system_load1 < 4\nhost_memory_free > 1\nhost_system_load1 * 0\n",
	"host_cpu_free >= 0\npow(1 - host_system_load1, 0.5)\n",
	"host_system_load1 < 4\nexp(1000) - exp(1000)\n",
	"host_system_load1 <= 3\nuser_preferred_host1 = \"diff-06\"\npow(2 - host_system_load1, 0.5) * host_bogomips\n",
}

const diffHosts = 12

func diffSys(host, val int) status.ServerStatus {
	return status.ServerStatus{
		Host:     fmt.Sprintf("diff-%02d", host),
		Load1:    float64(val),
		CPUIdle:  float64(val) / 4,
		Bogomips: 1000 + float64(host)*10,
		MemTotal: 256 << 20,
		MemFree:  uint64(val+1) << 20,
	}
}

func diffSec(host, val int) status.SecLevel {
	return status.SecLevel{Host: fmt.Sprintf("diff-%02d", host), Level: val % 5}
}

func diffNet(host, val int) status.NetMetric {
	return status.NetMetric{
		From:      "netmon-local",
		To:        fmt.Sprintf("group-%02d", host),
		Delay:     time.Duration(val+1) * time.Millisecond,
		Bandwidth: float64(val+1) * 1e6,
	}
}

// diffOp is one generated history operation; opSelect runs the whole
// corpus through the selectors and compares.
type diffOp struct {
	kind diffKind
	host int
	val  int
}

type diffKind int

const (
	dPutSys diffKind = iota
	dRefreshSys
	dPutSec
	dPutNet
	dExpireSys
	dExpireSec
	dSelect
	diffKinds
)

func (o diffOp) String() string {
	names := [...]string{"putSys", "refreshSys", "putSec", "putNet", "expireSys", "expireSec", "select"}
	return fmt.Sprintf("%s(h%d,v%d)", names[o.kind], o.host, o.val)
}

func genDiffOps(rng *rand.Rand, n int) []diffOp {
	ops := make([]diffOp, 0, n+1)
	for i := 0; i < n; i++ {
		ops = append(ops, diffOp{
			kind: diffKind(rng.Intn(int(diffKinds))),
			host: rng.Intn(diffHosts),
			val:  rng.Intn(5),
		})
	}
	return append(ops, diffOp{kind: dSelect})
}

// diffHarness wires a source database to the wizard-side mirror
// through the real delta codec, with three selectors over the mirror:
// the index planner, the forced constraint scan, and the pre-planner
// full scan.
type diffHarness struct {
	src, mir *store.DB
	now      time.Time
	mirVer   uint64
	synced   bool

	planner   *Selector // threshold 1: index path
	forced    *Selector // same, ForceScan: constraint-scan ground truth
	classic   *Selector // planner disabled: thesis baseline
	reg       *obs.Registry
	forcedReg *obs.Registry

	srcs  []string
	progs []*reqlang.Program

	sysD status.SysDelta
	netD status.NetDelta
	secD status.SecDelta
	sysV status.SysDeltaView
	netV status.NetDeltaView
	secV status.SecDeltaView
	buf  []byte
}

const diffStaleAge = 6 * time.Second

// newDiffHarness builds the harness with the freshness cutoff on;
// newDiffHarnessAge(t, 0) turns it off, which also lets the epoch memo
// answer the programs that read neither netdb nor secdb.
func newDiffHarness(t testing.TB) *diffHarness { return newDiffHarnessAge(t, diffStaleAge) }

func newDiffHarnessAge(t testing.TB, maxStatusAge time.Duration) *diffHarness {
	h := &diffHarness{now: time.Unix(1_700_000_000, 0), reg: obs.NewRegistry(), forcedReg: obs.NewRegistry()}
	clock := func() time.Time { return h.now }
	h.src = store.NewWithClock(clock)
	h.mir = store.NewWithClock(clock)
	cfg := Config{
		Obs:          h.reg,
		LocalMonitor: "netmon-local",
		GroupOf: func(host string) string {
			return strings.Replace(host, "diff-", "group-", 1)
		},
		ServicePort:  9000,
		MaxStatusAge: maxStatusAge,
	}
	var err error
	if h.planner, err = New(h.mir, cfg); err != nil {
		t.Fatal(err)
	}
	h.planner.PlanThreshold(1)
	// The index-path selector and the forced one report to registries of
	// their own, so the assertions below see each one's verdicts alone.
	forcedCfg := cfg
	forcedCfg.Obs = h.forcedReg
	if h.forced, err = New(h.mir, forcedCfg); err != nil {
		t.Fatal(err)
	}
	h.forced.PlanThreshold(1).ForceScan()
	classicCfg := cfg
	classicCfg.Obs = nil
	if h.classic, err = New(h.mir, classicCfg); err != nil {
		t.Fatal(err)
	}
	h.classic.PlanThreshold(-1)
	h.setCorpus(t, diffCorpus)
	return h
}

// setCorpus replaces the requirement texts compareAll runs.
func (h *diffHarness) setCorpus(t testing.TB, srcs []string) {
	h.srcs, h.progs = srcs, nil
	for _, src := range srcs {
		p, err := reqlang.Parse(src)
		if err != nil {
			t.Fatalf("corpus %q: %v", src, err)
		}
		h.progs = append(h.progs, p)
	}
}

func (h *diffHarness) apply(op diffOp) error {
	h.now = h.now.Add(time.Second)
	switch op.kind {
	case dPutSys:
		h.src.PutSys(diffSys(op.host, op.val))
	case dRefreshSys:
		if r, ok := h.src.GetSys(fmt.Sprintf("diff-%02d", op.host)); ok {
			h.src.PutSys(r.Status)
		} else {
			h.src.PutSys(diffSys(op.host, op.val))
		}
	case dPutSec:
		h.src.PutSec(diffSec(op.host, op.val))
	case dPutNet:
		h.src.PutNet(diffNet(op.host, op.val))
	case dExpireSys:
		h.src.ExpireSys(3 * time.Second)
	case dExpireSec:
		h.src.ExpireSec(3 * time.Second)
	case dSelect:
		if err := h.sync(); err != nil {
			return err
		}
		return h.compareAll(op.val)
	}
	return nil
}

// sync ships one epoch to the mirror, delta when servable, snapshot
// otherwise — the transmitter's decision, through the wire codec.
func (h *diffHarness) sync() error {
	if h.synced {
		if ver, ok := h.src.ChangedSince(h.mirVer, &h.sysD, &h.netD, &h.secD); ok {
			if !h.sysD.Empty() {
				h.buf = status.AppendSysDelta(h.buf[:0], &h.sysD)
				if err := h.sysV.Parse(h.buf); err != nil {
					return err
				}
				h.mir.ApplySysDelta(h.sysV.Changed, h.sysV.Deleted, h.sysV.Refreshed)
			}
			if !h.netD.Empty() {
				h.buf = status.AppendNetDelta(h.buf[:0], &h.netD)
				if err := h.netV.Parse(h.buf); err != nil {
					return err
				}
				h.mir.ApplyNetDelta(h.netV.Changed, h.netV.Deleted, h.netV.Refreshed)
			}
			if !h.secD.Empty() {
				h.buf = status.AppendSecDelta(h.buf[:0], &h.secD)
				if err := h.secV.Parse(h.buf); err != nil {
					return err
				}
				h.mir.ApplySecDelta(h.secV.Changed, h.secV.Deleted, h.secV.Refreshed)
			}
			h.mirVer = ver
			return nil
		}
	}
	sys, net, sec, ver := h.src.SnapshotAt()
	h.mir.Load(sys, net, sec)
	h.mirVer = ver
	h.synced = true
	return nil
}

// encodeResult renders a Result (and its error) into a canonical byte
// string, so "byte-identical" is literal.
func encodeResult(res Result, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "err=%v servers=%v shortfall=%d stale=%d pruned=%d epoch=%d\n",
		err, res.Servers, res.Shortfall, res.StaleDropped, res.Pruned, res.Epoch)
	for _, d := range res.Decisions {
		fmt.Fprintf(&b, "%s q=%t p=%t d=%t fl=%d score=%g hs=%t err=%v\n",
			d.Host, d.Qualified, d.Preferred, d.Denied, d.FailedLine, d.Score, d.HasScore, d.Err)
	}
	return b.String()
}

// diffCounts are the reply sizes compared: one server, a typical
// request, and the protocol's cap (more than the property fleet
// holds, so shortfalls are exercised too).
var diffCounts = [...]int{1, 8, proto.MaxServers}

// compareAll runs the corpus through the three selectors and the
// reference and checks the equivalences.
func (h *diffHarness) compareAll(val int) error {
	n := diffCounts[val%len(diffCounts)]
	for pi, prog := range h.progs {
		for _, opt := range []proto.Option{0, proto.OptPartialOK, proto.OptPartialOK | proto.OptRankByExpr} {
			fail := func(format string, args ...any) error {
				return fmt.Errorf("corpus[%d] %q n=%d opt=%d: %s", pi, h.srcs[pi], n, opt, fmt.Sprintf(format, args...))
			}
			idxRes, idxErr := h.planner.Select(prog, n, opt)
			scanRes, scanErr := h.forced.Select(prog, n, opt)
			a, b := encodeResult(idxRes, idxErr), encodeResult(scanRes, scanErr)
			if a != b {
				return fail("index path diverged from forced scan\nindex: %sscan:  %s", a, b)
			}
			if idxRes.Decisions != nil {
				return fail("Select kept %d per-host decisions", len(idxRes.Decisions))
			}
			clRes, clErr := h.classic.Select(prog, n, opt)
			refRes, refErr := referenceSelect(h.classic, prog, n, opt)
			for name, got := range map[string]Result{"planner": idxRes, "classic": clRes} {
				if fmt.Sprint(got.Servers) != fmt.Sprint(refRes.Servers) || got.Shortfall != refRes.Shortfall {
					return fail("%s servers %v/%d vs reference %v/%d", name, got.Servers, got.Shortfall, refRes.Servers, refRes.Shortfall)
				}
			}
			if fmt.Sprint(idxErr) != fmt.Sprint(refErr) || fmt.Sprint(clErr) != fmt.Sprint(refErr) {
				return fail("errors: planner %v, classic %v, reference %v", idxErr, clErr, refErr)
			}
			// Explain owes the reference's whole account: every fresh
			// host's Decision and the full stale count.
			exRes, exErr := h.planner.Explain(prog, n, opt)
			if a, b := encodeResult(exRes, exErr), encodeResult(refRes, refErr); a != b {
				return fail("Explain diverged from the reference\nexplain:   %sreference: %s", a, b)
			}
		}
	}
	return nil
}

// runSelectionDiff replays one history through two fresh harnesses,
// with and without the freshness cutoff.
func runSelectionDiff(ops []diffOp) error {
	for _, age := range []time.Duration{diffStaleAge, 0} {
		h := newDiffHarnessAge(&testing.T{}, age)
		for i, op := range ops {
			if err := h.apply(op); err != nil {
				return fmt.Errorf("MaxStatusAge %v, op %d %v: %w", age, i, op, err)
			}
		}
	}
	return nil
}

// shrink greedily removes ops while run still fails, returning a
// (locally) minimal failing sequence for the log.
func shrink[Op any](ops []Op, run func([]Op) error) []Op {
	reduced := true
	for reduced {
		reduced = false
		for i := 0; i < len(ops); i++ {
			cand := append(append([]Op(nil), ops[:i]...), ops[i+1:]...)
			if run(cand) != nil {
				ops = cand
				reduced = true
				break
			}
		}
	}
	return ops
}

func TestPlannerDifferentialProperty(t *testing.T) {
	const (
		sequences = 30
		opsPerSeq = 60
	)
	for seed := int64(0); seed < sequences; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := genDiffOps(rng, opsPerSeq)
		if err := runSelectionDiff(ops); err != nil {
			minimal := shrink(ops, runSelectionDiff)
			t.Logf("seed %d minimal failing sequence (%d of %d ops): %v", seed, len(minimal), len(ops), minimal)
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestPlannerDifferentialLargeTable runs one comparison past
// DefaultPlanThreshold with default configuration, so the production
// gating (not the test-pinned threshold 1) is exercised end to end.
func TestPlannerDifferentialLargeTable(t *testing.T) {
	h := newDiffHarness(t)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 3*DefaultPlanThreshold; i++ {
		h.now = h.now.Add(time.Millisecond)
		h.src.PutSys(status.ServerStatus{
			Host:    fmt.Sprintf("big-%04d", i),
			Load1:   float64(rng.Intn(5)),
			CPUIdle: rng.Float64(),
			MemFree: uint64(rng.Intn(8)) << 20,
		})
		if i%3 == 0 {
			h.src.PutSec(status.SecLevel{Host: fmt.Sprintf("big-%04d", i), Level: rng.Intn(5)})
		}
	}
	if err := h.sync(); err != nil {
		t.Fatal(err)
	}
	if err := h.compareAll(1); err != nil {
		t.Fatal(err)
	}
	// The mirror is quiescent and synced, so every index-resolvable
	// corpus entry must have been served by the index, never the
	// fallback scan.
	counters := h.reg.Snapshot().Counters
	if counters["index_plans"] == 0 {
		t.Fatal("planner never ran under plan semantics")
	}
	if counters["index_fallbacks"] != 0 {
		t.Fatalf("index fell back %d times on a quiescent mirror", counters["index_fallbacks"])
	}
	if counters["index_rows_pruned"] == 0 {
		t.Fatal("planner pruned nothing on a selective corpus")
	}
}

// TestPlannerDifferentialPageBoundaries runs the comparison on tables
// whose size straddles the batch evaluator's unit, a snapshot page — so
// the last batch is one lane short of full, exactly full, one lane, or
// follows two full ones — and on a table whose middle pages hold no
// candidate of the selective corpus entries at all (every host there is
// loaded past any load constraint), so the index source skips whole
// pages between two batches.
func TestPlannerDifferentialPageBoundaries(t *testing.T) {
	const page = store.SysPageLen
	for _, tc := range []struct {
		hosts  int
		hollow bool
	}{{page - 1, false}, {page, false}, {page + 1, false}, {2*page + 1, false}, {5*page + 3, true}} {
		h := newDiffHarness(t)
		rng := rand.New(rand.NewSource(int64(tc.hosts)))
		for i := 0; i < tc.hosts; i++ {
			h.now = h.now.Add(time.Millisecond)
			s := status.ServerStatus{
				Host:     fmt.Sprintf("diff-%04d", i),
				Load1:    float64(rng.Intn(5)),
				CPUIdle:  rng.Float64(),
				Bogomips: 1000 + float64(rng.Intn(4))*25,
				MemFree:  uint64(rng.Intn(8)) << 20,
			}
			if tc.hollow && i >= page && i < 4*page {
				s.Load1, s.CPUIdle = 50, 0
			}
			h.src.PutSys(s)
			if i%3 == 0 {
				h.src.PutSec(status.SecLevel{Host: s.Host, Level: rng.Intn(5)})
			}
		}
		if err := h.sync(); err != nil {
			t.Fatal(err)
		}
		for val := range diffCounts {
			if err := h.compareAll(val); err != nil {
				t.Fatalf("%d hosts (hollow %t): %v", tc.hosts, tc.hollow, err)
			}
		}
	}
}

// TestPlannerDifferentialBroadSpans runs the comparison with driver
// constraints whose sorted span is exactly the decline fraction of the
// table and one entry short of it, on tables straddling page
// boundaries, with the freshness cutoff on and off over a table whose
// first half has gone stale. The first shape must be declined and
// served by the column filter, the second by the index, and the forced
// filter agrees with both.
func TestPlannerDifferentialBroadSpans(t *testing.T) {
	const page = store.SysPageLen
	for _, hosts := range []int{page - 1, page, page + 1, 2*page + 1, 4 * page} {
		for _, age := range []time.Duration{diffStaleAge, 0} {
			h := newDiffHarnessAge(t, age)
			for i := 0; i < hosts; i++ {
				if i == hosts/2 {
					// Ship the first half, then let it age past the cutoff.
					if err := h.sync(); err != nil {
						t.Fatal(err)
					}
					h.now = h.now.Add(2 * diffStaleAge)
				}
				h.now = h.now.Add(time.Millisecond)
				// 37 is prime to every size above, so the values are a
				// permutation of 0..hosts-1 spread over every page.
				h.src.PutSys(status.ServerStatus{Host: fmt.Sprintf("diff-%04d", i), Bogomips: float64(i * 37 % hosts),
					CPUIdle: float64(i%4) / 4, Load1: float64(i % 5)})
			}
			if err := h.sync(); err != nil {
				t.Fatal(err)
			}
			// A span of k entries is broad when k*index.DeclineSpan covers the table.
			broad := (hosts + index.DeclineSpan - 1) / index.DeclineSpan
			var corpus []string
			for _, k := range []int{broad, broad - 1} {
				corpus = append(corpus,
					fmt.Sprintf("host_cpu_bogomips < %d\n", k),
					fmt.Sprintf("host_cpu_bogomips >= %d\nhost_cpu_free * 100\n", hosts-k),
					fmt.Sprintf("host_cpu_bogomips < %d && host_system_load1 < 3\nuser_denied_host1 = \"diff-0002\"\n", k))
			}
			h.setCorpus(t, corpus)
			for pi, prog := range h.progs {
				before := h.reg.Snapshot().Counters["index_declines"]
				if _, err := h.planner.Select(prog, 1, proto.OptPartialOK|proto.OptRankByExpr); err != nil {
					t.Fatal(err)
				}
				declined := h.reg.Snapshot().Counters["index_declines"] > before
				if want := pi < len(corpus)/2; declined != want {
					t.Errorf("%d hosts: %q declined %t, want %t", hosts, corpus[pi], declined, want)
				}
			}
			for val := range diffCounts {
				if err := h.compareAll(val); err != nil {
					t.Fatalf("%d hosts, MaxStatusAge %v: %v", hosts, age, err)
				}
			}
			// Each source served: the index, its decline, and the forced
			// filter — and on a quiescent mirror the index never fell back.
			c, forced := h.reg.Snapshot().Counters, h.forcedReg.Snapshot().Counters
			if c["index_declines"] == 0 || c["index_plans"]-c["index_declines"]-c["index_fallbacks"] == 0 || forced["index_fallbacks"] == 0 {
				t.Errorf("%d hosts: declined %d, indexed %d, forced %d: a source never ran", hosts,
					c["index_declines"], c["index_plans"]-c["index_declines"]-c["index_fallbacks"], forced["index_fallbacks"])
			}
			if c["index_fallbacks"] != 0 {
				t.Errorf("%d hosts: index fell back %d times on a quiescent mirror", hosts, c["index_fallbacks"])
			}
		}
	}
}

// TestPlannerDifferentialOutrunIndex runs the comparison after writes
// that outran the index, on either side of the store's changelog ring,
// over tables straddling page boundaries, with the freshness cutoff on
// and off. The selective questions read the index before the writes;
// after them, each one's first ask is declined and served by the column
// filter, and the comparison's asks that follow — declined, or served
// by the index once the rule's tally pays for its catch-up — agree with
// the forced filter and the walk.
func TestPlannerDifferentialOutrunIndex(t *testing.T) {
	const page = store.SysPageLen
	for _, hosts := range []int{page - 1, page + 1, 4 * page} {
		k := hosts / 8 // a span of k entries is selective
		corpus := []string{
			fmt.Sprintf("host_cpu_bogomips < %d\n", 1000+10*k),
			fmt.Sprintf("host_cpu_bogomips >= %d\nhost_cpu_free * 100\n", 1000+10*(hosts-k)),
			fmt.Sprintf("host_cpu_bogomips < %d && host_system_load1 < 3\nuser_denied_host1 = \"diff-02\"\n", 1000+10*k),
		}
		for _, writes := range []int{1, store.ChangeLogCap + 1} {
			for _, age := range []time.Duration{diffStaleAge, 0} {
				h := newDiffHarnessAge(t, age)
				put := func(i, val int) {
					h.now = h.now.Add(time.Millisecond)
					h.src.PutSys(diffSys(i%hosts, val%5))
				}
				for i := range hosts {
					put(i, i)
				}
				h.setCorpus(t, corpus)
				selectAll := func() (declines uint64) {
					before := h.reg.Snapshot().Counters["index_declines"]
					if err := h.sync(); err != nil {
						t.Fatal(err)
					}
					for _, prog := range h.progs {
						if _, err := h.planner.Select(prog, 1, proto.OptPartialOK|proto.OptRankByExpr); err != nil {
							t.Fatal(err)
						}
					}
					return h.reg.Snapshot().Counters["index_declines"] - before
				}
				if declines := selectAll(); declines != 0 {
					t.Fatalf("%d hosts: %d selective questions declined on a quiescent mirror", hosts, declines)
				}
				for i := range writes {
					put(i, i+1) // the first write to each host moves its content
				}
				if declines := selectAll(); declines != uint64(len(corpus)) {
					t.Fatalf("%d hosts, %d writes: %d of %d selective questions declined", hosts, writes, declines, len(corpus))
				}
				for val := range diffCounts {
					if err := h.compareAll(val); err != nil {
						t.Fatalf("%d hosts, %d writes, MaxStatusAge %v: %v", hosts, writes, age, err)
					}
				}
				if c := h.reg.Snapshot().Counters; c["index_fallbacks"] != 0 {
					t.Errorf("%d hosts, %d writes: index fell back %d times on a quiescent mirror", hosts, writes, c["index_fallbacks"])
				}
			}
		}
	}
}

// hostListFleet spells hosts every way a list entry may have to match:
// mixed case, ports, bracketed and bare IPv6, two hosts that fold to one
// name ("h:9000", "H:9001"), a bracketed name ("[h]", keyed "h"), and
// non-ASCII names EqualFold matches but lower-casing does not: the
// Kelvin sign is no "k" to a byte comparison, and "ſ" (long s) stays
// itself under strings.ToLower while EqualFold matches it with "S".
var hostListFleet = []string{"h:9000", "H:9001", "[h]", "Mixed.Lab", "[fe80::1]:7000", "fe80::2", "FE80::A",
	"\u212Aelvin.lab", "\u017Ferver.lab", "zeta"}

// hostListCorpus lists those hosts in denied and preferred entries of
// every form, entries that name no host among them.
var hostListCorpus = []string{
	"host_system_load1 < 4\nuser_denied_host1 = \"h\"\n",
	"host_system_load1 < 4\nuser_preferred_host1 = \"H:1\"\nuser_preferred_host2 = \"mixed.lab\"\n",
	"host_system_load1 < 4\nuser_denied_host1 = \"[FE80::1]\"\nuser_preferred_host1 = \"fe80::a\"\nuser_preferred_host2 = \"[fe80::2]:1\"\n",
	"user_denied_host1 = \"nobody.lab\"\nuser_preferred_host1 = \"nobody.lab:80\"\nhost_system_load1 * 10\n",
	"host_system_load1 < 5\nuser_preferred_host1 = \"KELVIN.LAB\"\nuser_preferred_host2 = \"Server.lab\"\nhost_system_load1\n",
	"user_preferred_host1 = \"h:9000\"\nuser_denied_host2 = \"H\"\nuser_preferred_host3 = \"ZETA\"\nuser_preferred_host4 = \"diff-0100\"\n",
	"host_system_load1 < 4\nuser_denied_host1 = \"kelvin.lab\"\nuser_denied_host2 = \"[[h]]\"\nuser_preferred_host2 = zeta\n",
}

// resolvedAgrees holds the selector's host sets for a snapshot to the
// string matcher: each string of prog resolves to exactly the positions
// whose host matchHost matches with it.
func resolvedAgrees(sel *Selector, prog *reqlang.Program, snap *store.SysSnapshot) error {
	var sc scratch
	sel.resolveHosts(&query{info: sel.infoFor(prog), snap: snap}, &sc)
	for j := 1; j < len(prog.Strings()); j++ {
		entry := prog.Strings()[j]
		got := slices.Clone(sc.hostPos[sc.hostAt[j]:sc.hostAt[j+1]])
		slices.Sort(got)
		var want []int
		for i := range snap.Len() {
			if matchHost(snap.Host(i), []string{entry}) == 0 {
				want = append(want, i)
			}
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("%q resolves to positions %v, the string matcher to %v", entry, got, want)
		}
	}
	return nil
}

// TestPlannerDifferentialHostLists runs the four-way comparison over
// hostListFleet, spread over three pages of lower-case hosts, through an
// expiry of one of the two hosts that fold to one name and the join of a
// host of the same name again. A snapshot taken before the expiry is
// held throughout: the selector rebuilds its alias list for each new set
// of hosts, and the held snapshot must still resolve as the string
// matcher reads it.
func TestPlannerDifferentialHostLists(t *testing.T) {
	for _, age := range []time.Duration{diffStaleAge, 0} {
		h := newDiffHarnessAge(t, age)
		h.setCorpus(t, hostListCorpus)
		put := func(i int, host string) {
			s := diffSys(i, i%5)
			s.Host = host
			h.src.PutSys(s)
		}
		fleet := slices.Clone(hostListFleet)
		for i := 0; i < 2*store.SysPageLen; i++ {
			fleet = append(fleet, fmt.Sprintf("diff-%04d", i))
		}
		for i, host := range fleet {
			put(i, host)
		}
		var held *store.SysSnapshot
		step := func(what string) {
			t.Helper()
			if err := h.sync(); err != nil {
				t.Fatal(err)
			}
			for val := range diffCounts {
				if err := h.compareAll(val); err != nil {
					t.Fatalf("MaxStatusAge %v, %s: %v", age, what, err)
				}
			}
			if held == nil {
				held = h.mir.SysView()
			}
			for _, sel := range []*Selector{h.planner, h.classic} {
				for pi, prog := range h.progs {
					for name, snap := range map[string]*store.SysSnapshot{"held": held, "current": h.mir.SysView()} {
						if err := resolvedAgrees(sel, prog, snap); err != nil {
							t.Fatalf("MaxStatusAge %v, %s, corpus[%d], %s snapshot: %v", age, what, pi, name, err)
						}
					}
				}
			}
		}
		step("loaded")
		h.now = h.now.Add(2 * time.Second)
		for i, host := range fleet {
			if host != "H:9001" {
				put(i, host)
			}
		}
		h.src.ExpireSys(time.Second)
		step("H:9001 expired")
		put(0, "H:9001")
		step("H:9001 joined again")
		if got, want := h.mir.SysView().Len(), held.Len(); got != want {
			t.Fatalf("%d hosts after the join, %d before the expiry", got, want)
		}
	}
}
