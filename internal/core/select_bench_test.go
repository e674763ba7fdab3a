package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"smartsock/internal/index"
	"smartsock/internal/obs"
	"smartsock/internal/proto"
	"smartsock/internal/status"
	"smartsock/internal/store"
	"smartsock/internal/sysinfo"
)

// benchReq is the storm-mix requirement: three qualification lines, a
// ranking expression, and enough variable reads to make env binding
// visible in the profile.
const benchReq = "host_cpu_bogomips > 3000\n" +
	"host_cpu_free > 0.5\n" +
	"host_memory_free > 5\n" +
	"score = host_cpu_bogomips * host_cpu_free\n" +
	"score\n"

// benchDB registers the 11-host set used by the fast-path benchmarks:
// a spread of bogomips so some hosts qualify and some do not.
func benchDB() *store.DB {
	db := store.New()
	hosts := []struct {
		name     string
		bogomips float64
		memMB    uint64
	}{
		{"apple", 4771, 512}, {"banana", 1730, 128}, {"cherry", 5321, 1024},
		{"date", 2900, 256}, {"elder", 3650, 512}, {"fig", 4100, 768},
		{"grape", 990, 64}, {"honey", 6020, 2048}, {"iris", 3105, 384},
		{"jade", 2450, 256}, {"kiwi", 5500, 1024},
	}
	for _, h := range hosts {
		db.PutSys(sysinfo.Idle(h.name, h.bogomips, h.memMB))
	}
	return db
}

// TestSelectAllocs pins the per-selection allocation budgets. The
// seed implementation copied the whole server table and built a fresh
// variable map per candidate (71 allocs/op on this workload); the
// snapshot + pooled-env evaluation path must stay at least 50% below
// that, and a memoised repeat must not allocate at all.
func TestSelectAllocs(t *testing.T) {
	db := benchDB()
	prog := mustProg(t, benchReq)

	evalSel := newSelector(t, db, Config{MaxStatusAge: time.Hour})
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := evalSel.Select(prog, 4, proto.OptRankByExpr); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 35 // seed: 71 allocs/op on this 11-host workload
	if allocs > maxAllocs {
		t.Errorf("Select evaluates with %.1f allocs/op, budget %d", allocs, maxAllocs)
	}

	memoSel := newSelector(t, db, Config{})
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := memoSel.Select(prog, 4, proto.OptRankByExpr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("memoised repeat allocates %.1f times, want 0", allocs)
	}
}

// TestSelectMemoInvalidatedByWrites proves the memo can never serve a
// stale answer: any table mutation bumps the epoch and the next
// selection re-evaluates.
func TestSelectMemoInvalidatedByWrites(t *testing.T) {
	db := benchDB()
	sel := newSelector(t, db, Config{})
	prog := mustProg(t, "host_cpu_bogomips > 6500\n")

	res, err := sel.Select(prog, 1, proto.OptPartialOK)
	if err != nil || len(res.Servers) != 0 {
		t.Fatalf("unexpected qualifiers %v (err %v)", res.Servers, err)
	}
	db.PutSys(sysinfo.Idle("lemon", 7000, 1024))
	res, err = sel.Select(prog, 1, proto.OptPartialOK)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Servers) != 1 || res.Servers[0] != "lemon" {
		t.Errorf("post-write selection returned %v, want the new host", res.Servers)
	}
}

// TestStaleDroppedSingleSnapshot is the regression test for the
// double-read bug: the seed took one locked read for the total count
// and a second for the fresh set, so a probe report landing in
// between skewed StaleDropped. A single snapshot must make the
// accounting exact: every record is either evaluated or counted
// stale. Explain is the entry point that visits every record; a
// Select that fills its reply early counts only the prefix it walked
// (TestSelectStopsAtTheNthQualifier).
func TestStaleDroppedSingleSnapshot(t *testing.T) {
	now := time.Date(2004, 6, 1, 12, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	db := store.NewWithClock(clock)
	for _, h := range []string{"old1", "old2", "old3"} {
		db.PutSys(sysinfo.Idle(h, 5000, 512))
	}
	mu.Lock()
	now = now.Add(time.Minute)
	mu.Unlock()
	for _, h := range []string{"new1", "new2"} {
		db.PutSys(sysinfo.Idle(h, 5000, 512))
	}

	sel := newSelector(t, db, Config{MaxStatusAge: 30 * time.Second})
	res, err := sel.Explain(mustProg(t, "host_cpu_free > 0.5\n"), 2, proto.OptPartialOK)
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleDropped != 3 {
		t.Errorf("StaleDropped = %d, want 3", res.StaleDropped)
	}
	if len(res.Decisions) != 2 {
		t.Errorf("%d decisions, want 2 (fresh hosts only)", len(res.Decisions))
	}
	if got, want := res.StaleDropped+len(res.Decisions), db.SysLen(); got != want {
		t.Errorf("stale (%d) + evaluated (%d) = %d, want the full table (%d)",
			res.StaleDropped, len(res.Decisions), got, want)
	}
	if res.Epoch != db.SysEpoch() {
		t.Errorf("result epoch %d, table epoch %d", res.Epoch, db.SysEpoch())
	}
}

// TestStaleDroppedCountsOnlyRecordsPassingConstraints: a planned
// selection prunes before it checks the age, so a stale record that
// fails the constraints is pruned, not dropped as stale — whichever
// source serves it: the index, the column filter the index declined
// to, or the forced filter.
func TestStaleDroppedCountsOnlyRecordsPassingConstraints(t *testing.T) {
	const hosts = 300
	now := time.Date(2004, 6, 1, 12, 0, 0, 0, time.UTC)
	db := store.NewWithClock(func() time.Time { return now })
	for i := 0; i < hosts; i++ {
		if i == hosts/2 {
			now = now.Add(time.Minute) // the first half goes stale
		}
		db.PutSys(status.ServerStatus{Host: fmt.Sprintf("h%03d", i), Bogomips: float64(i * 37 % hosts)})
	}
	cfg := Config{MaxStatusAge: 30 * time.Second, PlanThreshold: 1}
	for _, k := range []int{10, 200} { // a selective span, a broad one
		prog := mustProg(t, fmt.Sprintf("host_cpu_bogomips < %d\n", k))
		var stale, pruned int
		for i := 0; i < hosts; i++ {
			switch {
			case i*37%hosts >= k:
				pruned++
			case i < hosts/2:
				stale++
			}
		}
		for _, forced := range []bool{false, true} {
			reg := obs.NewRegistry()
			cfg.Obs = reg
			sel := newSelector(t, db, cfg)
			if forced {
				sel.ForceScan()
			}
			res, err := sel.Select(prog, proto.MaxServers, proto.OptPartialOK|proto.OptRankByExpr)
			if err != nil {
				t.Fatal(err)
			}
			declined := reg.Snapshot().Counters["index_declines"] > 0
			if res.StaleDropped != stale || res.Pruned != pruned {
				t.Errorf("span %d, forced %t, declined %t: StaleDropped %d, Pruned %d; want %d, %d",
					k, forced, declined, res.StaleDropped, res.Pruned, stale, pruned)
			}
			if broad := k*index.DeclineSpan >= hosts; !forced && declined != broad {
				t.Errorf("span %d of %d: declined %t", k, hosts, declined)
			}
		}
	}
}

// TestSelectConcurrentWithWrites hammers Select from several
// goroutines while probe reports keep landing — the storm fast path's
// core claim is that this needs no outer lock.
func TestSelectConcurrentWithWrites(t *testing.T) {
	db := benchDB()
	sel := newSelector(t, db, Config{})
	prog := mustProg(t, benchReq)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				db.PutSys(sysinfo.Idle("apple", float64(3000+i%3000), 512))
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 500; i++ {
				res, err := sel.Select(prog, 4, proto.OptRankByExpr|proto.OptPartialOK)
				if err != nil {
					t.Errorf("Select: %v", err)
					return
				}
				if len(res.Servers) == 0 {
					t.Error("no servers selected")
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
