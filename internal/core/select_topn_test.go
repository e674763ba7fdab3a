package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"smartsock/internal/obs"
	"smartsock/internal/proto"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// TestReplyOrderIsAStrictTotalOrder pins candidate.before over a
// table that mixes every ordering input — preferred slots, scores,
// ties, no score, and NaN (which must behave exactly like no score):
// irreflexive, total over distinct candidates, transitive. A NaN that
// leaked into a comparison would break all three.
func TestReplyOrderIsAStrictTotalOrder(t *testing.T) {
	nan := math.NaN()
	table := []candidate{
		{pos: 0, preferred: -1, score: 5, hasScore: true},
		{pos: 1, preferred: -1, score: nan, hasScore: true},
		{pos: 2, preferred: -1, score: 5, hasScore: true},
		{pos: 3, preferred: -1},
		{pos: 4, preferred: 1, score: nan, hasScore: true},
		{pos: 5, preferred: 0, score: 1, hasScore: true},
		{pos: 6, preferred: -1, score: 9, hasScore: true},
		{pos: 7, preferred: 1, score: 2, hasScore: true},
		{pos: 8, preferred: -1, score: math.Inf(-1), hasScore: true},
		{pos: 9, preferred: -1, score: nan, hasScore: true},
	}
	for _, ranked := range []bool{false, true} {
		for i := range table {
			a := &table[i]
			if a.before(a, ranked) {
				t.Errorf("ranked=%t: %+v sorts before itself", ranked, *a)
			}
			for j := range table {
				b := &table[j]
				if i != j && a.before(b, ranked) == b.before(a, ranked) {
					t.Errorf("ranked=%t: %+v and %+v are not ordered one way", ranked, *a, *b)
				}
				for k := range table {
					c := &table[k]
					if a.before(b, ranked) && b.before(c, ranked) && !a.before(c, ranked) {
						t.Errorf("ranked=%t: not transitive over %+v, %+v, %+v", ranked, *a, *b, *c)
					}
				}
			}
		}
	}
	// The rule itself: ranked, a NaN score sits with the unscored hosts —
	// after every scored one, in snapshot order; unranked, scores are
	// ignored.
	order := func(ranked bool) (out []int) {
		top := topN{n: len(table), ranked: ranked}
		for _, i := range rand.New(rand.NewSource(1)).Perm(len(table)) {
			top.offer(table[i])
		}
		for _, c := range top.items {
			out = append(out, c.pos)
		}
		return out
	}
	if got, want := fmt.Sprint(order(true)), "[5 7 4 6 0 2 8 1 3 9]"; got != want {
		t.Errorf("ranked order %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(order(false)), "[5 4 7 0 1 2 3 6 8 9]"; got != want {
		t.Errorf("unranked order %s, want %s", got, want)
	}
}

// seededFleet is n hosts whose values are drawn from small sets, so
// scores tie often, with a few hosts reported long enough ago to be
// stale under a ten-minute cutoff.
func seededFleet(seed int64, n int) *store.DB {
	rng := rand.New(rand.NewSource(seed))
	now := time.Unix(1_700_000_000, 0)
	db := store.NewWithClock(func() time.Time { return now })
	stale := now.Add(-time.Hour)
	for i := 0; i < n; i++ {
		if i%17 == 3 {
			now, stale = stale, now
		}
		db.PutSys(status.ServerStatus{
			Host:     fmt.Sprintf("fleet-%04d", i),
			Load1:    float64(rng.Intn(5)),
			CPUIdle:  float64(rng.Intn(5)) / 4,
			Bogomips: float64(1000 * (1 + rng.Intn(3))),
			MemTotal: 1 << 30,
			MemFree:  uint64(1+rng.Intn(4)) << 28,
		})
		if i%17 == 3 {
			now, stale = stale, now
		}
	}
	return db
}

// TestSelectionMatchesReferenceOnSeededFleets is the differential
// suite's wide-table half: on fleets large enough for the planner's
// default threshold and for n = MaxServers to be a real bound, every
// candidate source returns the reference's servers, ranked and
// unranked, with and without the freshness cutoff.
func TestSelectionMatchesReferenceOnSeededFleets(t *testing.T) {
	corpus := []string{
		"host_cpu_free > 0.2\nhost_cpu_bogomips * host_cpu_free\n",                                         // broad, heavy ties
		"host_system_load1 < 1\nhost_memory_free\n",                                                        // selective
		"host_cpu_free + 0 > 0.2\nhost_cpu_bogomips\n",                                                     // unindexable
		"host_cpu_free > 0.2\npow(2 - host_system_load1, 0.5) * host_cpu_bogomips\n",                       // NaN for load > 2
		"host_system_load1 < 4\nlog(host_cpu_free + 1) - log(host_cpu_free + 1) + exp(1000) - exp(1000)\n", // NaN everywhere
		"host_cpu_free > 0.2\nuser_preferred_host1 = fleet-0290\nuser_preferred_host2 = fleet-0007\nuser_denied_host1 = fleet-0001\nhost_cpu_bogomips\n",
		"user_denied_host1 = fleet-0000\nuser_denied_host2 = \"fleet-0002\"\nhost_system_load1 <= 4\n", // unranked, early stop
		"host_cpu_free > 0.2\nuser_preferred_host1 = fleet-0003\n",                                     // preferred host is stale
	}
	for seed := int64(1); seed <= 3; seed++ {
		db := seededFleet(seed, 300)
		for _, age := range []time.Duration{0, 10 * time.Minute} {
			cfg := Config{MaxStatusAge: age, ServicePort: 9000}
			planner := newSelector(t, db, cfg)
			forced := newSelector(t, db, cfg).ForceScan()
			cfg.PlanThreshold = -1
			classic := newSelector(t, db, cfg)
			for _, src := range corpus {
				prog := mustProg(t, src)
				for _, n := range diffCounts {
					for _, opt := range []proto.Option{proto.OptPartialOK, proto.OptPartialOK | proto.OptRankByExpr} {
						want, _ := referenceSelect(classic, prog, n, opt)
						for name, sel := range map[string]*Selector{"planner": planner, "forced": forced, "classic": classic} {
							got, err := sel.Select(prog, n, opt)
							if err != nil {
								t.Fatal(err)
							}
							if fmt.Sprint(got.Servers) != fmt.Sprint(want.Servers) || got.Shortfall != want.Shortfall {
								t.Fatalf("seed %d age %v %q n=%d opt=%d: %s chose %v (short %d), reference %v (short %d)",
									seed, age, src, n, opt, name, got.Servers, got.Shortfall, want.Servers, want.Shortfall)
							}
						}
					}
				}
			}
		}
	}
}

// TestSelectStopsAtTheNthQualifier pins the early stop and what the
// counters mean under it: an unranked request whose program assigns
// no preferred host stops at its n-th qualifier, so evaluations,
// StaleDropped and Pruned cover only the prefix of the snapshot it
// walked; ranking or a preferred list evaluates every candidate.
func TestSelectStopsAtTheNthQualifier(t *testing.T) {
	db := seededFleet(7, 300)
	for _, tc := range []struct {
		name      string
		threshold int
	}{{"walk", -1}, {"plan", 1}} {
		reg := obs.NewRegistry()
		sel := newSelector(t, db, Config{Obs: reg, MaxStatusAge: 10 * time.Minute, PlanThreshold: tc.threshold})
		evals := func() uint64 { return reg.Snapshot().Counters["core_record_evals"] }
		full, err := sel.Explain(mustProg(t, "host_cpu_free > 0.2\n"), 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh := uint64(len(full.Decisions))
		base := evals()

		res, err := sel.Select(mustProg(t, "host_cpu_free > 0.2\n"), 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Servers) != fmt.Sprint(full.Servers) {
			t.Errorf("%s: early stop chose %v, full evaluation %v", tc.name, res.Servers, full.Servers)
		}
		// fleet-0003 is the first stale host; four qualifiers come before
		// or just after it, far from the end of a 300-host table.
		if got := evals() - base; got >= fresh/4 {
			t.Errorf("%s: %d evaluations for 4 servers out of %d fresh hosts: no early stop", tc.name, got, fresh)
		}
		if res.StaleDropped > 1 || res.StaleDropped+res.Pruned >= 20 {
			t.Errorf("%s: StaleDropped %d, Pruned %d: counted past the visited prefix (table has %d stale)",
				tc.name, res.StaleDropped, res.Pruned, full.StaleDropped)
		}

		for _, again := range []struct {
			src string
			opt proto.Option
		}{
			{"host_cpu_free > 0.2\nhost_cpu_bogomips\n", proto.OptRankByExpr},
			{"host_cpu_free > 0.2\nuser_preferred_host1 = fleet-0299\n", 0},
		} {
			base = evals()
			res, err := sel.Select(mustProg(t, again.src), 4, again.opt)
			if err != nil {
				t.Fatal(err)
			}
			// Pruning tests the constraints before the age, so a stale
			// record failing them counts as pruned: the three add up to the
			// table, and with no planner the stale count is the table's.
			if got := int(evals()-base) + res.Pruned + res.StaleDropped; got != db.SysLen() {
				t.Errorf("%s %q: evaluated+pruned+stale = %d, table holds %d", tc.name, again.src, got, db.SysLen())
			}
			if tc.threshold < 0 && (res.StaleDropped != full.StaleDropped || res.Pruned != 0) {
				t.Errorf("%s %q: StaleDropped %d (want %d), Pruned %d", tc.name, again.src, res.StaleDropped, full.StaleDropped, res.Pruned)
			}
		}
	}
}

// TestBroadSelectAllocsIndependentOfQualifiers is the memory half of
// the bounded top-n: a ranked selection over 20 000 hosts allocates
// the same small number of objects whether 2 % or 98 % of them
// qualify, by index or by walking, and its byte cost stays far below
// one word per host.
func TestBroadSelectAllocsIndependentOfQualifiers(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-host table")
	}
	const hosts = 20_000
	rng := rand.New(rand.NewSource(20))
	recs := make([]status.ServerStatus, hosts)
	for i := range recs {
		recs[i] = status.ServerStatus{Host: fmt.Sprintf("h%05d.fleet", i), CPUIdle: rng.Float64(), Bogomips: 1000 + rng.Float64()*4000}
	}
	db := store.New()
	db.Load(recs, nil, nil)
	// n winners' addresses, the Servers slice and the index's bitsets,
	// plus a rebuilt scratch (environment arrays, bitset, winner list):
	// under the race detector sync.Pool drops items at random. Either
	// way a constant — the old path allocated twice per qualifier.
	const budget = (8 + 1 + 3) + 12
	for _, threshold := range []int{1, -1} {
		sel := newSelector(t, db, Config{MaxStatusAge: time.Hour, PlanThreshold: threshold, ServicePort: 9000})
		for _, cut := range []float64{0.02, 0.5, 0.98} {
			prog := mustProg(t, fmt.Sprintf("host_cpu_free > %g\nscore = host_cpu_bogomips * host_cpu_free\nscore\n", cut))
			run := func() {
				res, err := sel.Select(prog, 8, proto.OptRankByExpr)
				if err != nil || len(res.Servers) != 8 {
					t.Fatalf("%v, %d servers", err, len(res.Servers))
				}
			}
			run() // warm the plan, the index columns and the pooled scratch
			if got := testing.AllocsPerRun(10, run); got > budget {
				t.Errorf("threshold %d, %.0f%% qualify: %.0f allocs per Select, budget %d", threshold, 100*(1-cut), got, budget)
			}
		}
	}
}

// TestPutThenRankedSelectAllocs pins what a report followed by a broad
// ranked request allocates at 20 000 hosts, the fleet_20k_broad op seen
// from inside: the rebuilt snapshot's page table, page and header, the
// Servers slice, and nothing that grows with the table or the
// qualifiers — the batch, its lanes and both of the index's bitsets
// come from the pooled scratch. It was 8 while Positions made its
// candidate bitset per call.
func TestPutThenRankedSelectAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-host table; under the race detector sync.Pool drops the scratch at random")
	}
	const hosts = 20_000
	rng := rand.New(rand.NewSource(21))
	recs := make([]status.ServerStatus, hosts)
	for i := range recs {
		recs[i] = status.ServerStatus{Host: fmt.Sprintf("h%05d.fleet", i), CPUIdle: rng.Float64(), Load1: 4.5 * rng.Float64(),
			Bogomips: 1000 + rng.Float64()*4000, MemTotal: 1 << 30, MemFree: 600 << 20}
	}
	db := store.New()
	db.Load(recs, nil, nil)
	sel := newSelector(t, db, Config{})
	prog := mustProg(t, "host_cpu_free > 0.1\nhost_system_load1 < 4\nhost_memory_free > 16\nscore = host_cpu_bogomips * host_cpu_free\nscore\n")
	next := 0
	run := func() {
		recs[next].CPUIdle = rng.Float64()
		db.PutSys(recs[next])
		next = (next + 1) % hosts
		res, err := sel.Select(prog, 8, proto.OptRankByExpr)
		if err != nil || len(res.Servers) != 8 {
			t.Fatalf("%v, %d servers", err, len(res.Servers))
		}
	}
	run() // warm the plan, the index columns and the pooled scratch
	if got := testing.AllocsPerRun(50, run); got > 7 {
		t.Errorf("%.0f allocs per put + ranked Select, want at most 7", got)
	}
}
