package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"smartsock/internal/obs"
	"smartsock/internal/reqlang"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// expectHosts computes the ground-truth candidate set by scanning the
// snapshot and sec table directly.
func expectHosts(db *store.DB, snap *store.SysSnapshot, cons []reqlang.Constraint) []string {
	var out []string
	for i := 0; i < snap.Len(); i++ {
		rec := snap.At(i)
		ok := true
		for _, c := range cons {
			var v float64
			if c.Var == SecurityField {
				sec, found := db.GetSec(rec.Status.Host)
				if !found {
					ok = false
					break
				}
				v = float64(sec.Level.Level)
			} else {
				val, found := rec.Status.Var(c.Var)
				if !found {
					ok = false
					break
				}
				v = val
			}
			if !c.Match(v) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, rec.Status.Host)
		}
	}
	sort.Strings(out)
	return out
}

// query syncs the set against the database head and returns the
// candidate hosts, failing the test when the index declines to serve.
func query(t *testing.T, db *store.DB, s *Set, cons []reqlang.Constraint) []string {
	t.Helper()
	fields := make([]string, 0, len(cons))
	for _, c := range cons {
		fields = append(fields, c.Var)
	}
	snap := db.SysView()
	if !s.SyncFor(snap, fields) {
		t.Fatalf("SyncFor declined a fresh snapshot (epoch %d)", snap.Epoch)
	}
	positions, _, ok := s.Positions(snap.Epoch, cons, nil, nil)
	if !ok {
		t.Fatalf("Positions declined epoch %d after successful SyncFor", snap.Epoch)
	}
	// Positions index the snapshot, which is sorted by host.
	var hosts []string
	positions.ForEach(func(i int) { hosts = append(hosts, snap.At(i).Status.Host) })
	want := expectHosts(db, snap, cons)
	if !reflect.DeepEqual(hosts, want) && !(len(hosts) == 0 && len(want) == 0) {
		t.Fatalf("candidates mismatch for %v:\n got %v\nwant %v", cons, hosts, want)
	}
	return hosts
}

func TestIndexDeltaMaintenance(t *testing.T) {
	clock := time.Unix(1000, 0)
	db := store.NewWithClock(func() time.Time { return clock })
	reg := obs.NewRegistry()
	s := New(db, reg)

	for i := 0; i < 50; i++ {
		db.PutSys(status.ServerStatus{Host: fmt.Sprintf("h%02d", i), Load1: float64(i) / 10, CPUIdle: float64(i) / 50})
	}
	cons := []reqlang.Constraint{{Var: "host_system_load1", Op: reqlang.CmpLT, Val: 2.0}}
	got := query(t, db, s, cons)
	if len(got) != 20 {
		t.Fatalf("expected 20 hosts under load 2.0, got %d", len(got))
	}

	// Incremental updates: shift some loads, add hosts, expire others.
	clock = clock.Add(time.Minute)
	for i := 0; i < 10; i++ {
		db.PutSys(status.ServerStatus{Host: fmt.Sprintf("h%02d", i), Load1: 9, CPUIdle: 0.9})
	}
	db.PutSys(status.ServerStatus{Host: "new-a", Load1: 0.1, CPUIdle: 1})
	db.ExpireSys(30 * time.Second) // drops the 40 un-refreshed hosts

	got = query(t, db, s, cons)
	if len(got) != 1 || got[0] != "new-a" {
		t.Fatalf("after churn expected [new-a], got %v", got)
	}
	if n := reg.Snapshot().Counters["index_resyncs"]; n != 1 {
		t.Fatalf("the churn cost %d resyncs in all, want the first build's only", n)
	}

	// Multi-constraint intersection.
	got = query(t, db, s, []reqlang.Constraint{
		{Var: "host_system_load1", Op: reqlang.CmpGE, Val: 5},
		{Var: "host_cpu_free", Op: reqlang.CmpGT, Val: 0.5},
	})
	if len(got) != 10 {
		t.Fatalf("expected the 10 re-put hosts, got %v", got)
	}
}

func TestIndexRefreshIsNoop(t *testing.T) {
	clock := time.Unix(2000, 0)
	db := store.NewWithClock(func() time.Time { return clock })
	s := New(db, nil)
	st := status.ServerStatus{Host: "r1", Load1: 1.5}
	db.PutSys(st)
	cons := []reqlang.Constraint{{Var: "host_system_load1", Op: reqlang.CmpEQ, Val: 1.5}}
	query(t, db, s, cons)
	epochBefore := db.SysEpoch()

	clock = clock.Add(time.Second)
	db.PutSys(st) // same content: refresh, epoch must hold
	if db.SysEpoch() != epochBefore {
		t.Fatalf("refresh advanced the epoch: %d -> %d", epochBefore, db.SysEpoch())
	}
	got := query(t, db, s, cons)
	if len(got) != 1 {
		t.Fatalf("refresh lost the host: %v", got)
	}
}

func TestIndexResyncAfterLoad(t *testing.T) {
	reg := obs.NewRegistry()
	db := store.New()
	s := New(db, reg)
	db.PutSys(status.ServerStatus{Host: "a", Load1: 1})
	query(t, db, s, []reqlang.Constraint{{Var: "host_system_load1", Op: reqlang.CmpGT, Val: 0}})

	// Load replaces the table wholesale and resets retained history;
	// the next sync must rebuild, not delta.
	db.Load([]status.ServerStatus{{Host: "b", Load1: 2}, {Host: "c", Load1: 0.5}}, nil, nil)
	got := query(t, db, s, []reqlang.Constraint{{Var: "host_system_load1", Op: reqlang.CmpGT, Val: 1}})
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("after Load expected [b], got %v", got)
	}
	if n := reg.Snapshot().Counters["index_resyncs"]; n < 1 {
		t.Fatalf("expected at least one resync, counter = %d", n)
	}
}

func TestIndexNaNNeverMatches(t *testing.T) {
	db := store.New()
	s := New(db, nil)
	db.PutSys(status.ServerStatus{Host: "nan-host", Load1: math.NaN()})
	db.PutSys(status.ServerStatus{Host: "ok-host", Load1: 1})
	for _, op := range []reqlang.CmpOp{reqlang.CmpLT, reqlang.CmpLE, reqlang.CmpGT, reqlang.CmpGE, reqlang.CmpEQ} {
		got := query(t, db, s, []reqlang.Constraint{{Var: "host_system_load1", Op: op, Val: 100}})
		for _, h := range got {
			if h == "nan-host" {
				t.Fatalf("NaN value matched constraint op %v", op)
			}
		}
	}
}

func TestIndexSecurityField(t *testing.T) {
	db := store.New()
	s := New(db, nil)
	for i := 0; i < 8; i++ {
		host := fmt.Sprintf("s%d", i)
		db.PutSys(status.ServerStatus{Host: host, Load1: 1})
		if i%2 == 0 {
			db.PutSec(status.SecLevel{Host: host, Level: i})
		}
	}
	got := query(t, db, s, []reqlang.Constraint{{Var: SecurityField, Op: reqlang.CmpGE, Val: 4}})
	want := []string{"s4", "s6"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("security candidates = %v, want %v", got, want)
	}

	// Raising one host's level must flow through the delta path.
	db.PutSec(status.SecLevel{Host: "s0", Level: 9})
	got = query(t, db, s, []reqlang.Constraint{{Var: SecurityField, Op: reqlang.CmpGE, Val: 4}})
	want = []string{"s0", "s4", "s6"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after sec update candidates = %v, want %v", got, want)
	}
}

func TestIndexCompactionUnderChurn(t *testing.T) {
	clock := time.Unix(3000, 0)
	db := store.NewWithClock(func() time.Time { return clock })
	s := New(db, nil)
	rng := rand.New(rand.NewSource(7))
	cons := []reqlang.Constraint{{Var: "host_cpu_free", Op: reqlang.CmpGT, Val: 0.5}}
	for round := 0; round < 40; round++ {
		clock = clock.Add(time.Second)
		for i := 0; i < 32; i++ {
			db.PutSys(status.ServerStatus{
				Host:    fmt.Sprintf("c%02d", i),
				Load1:   rng.Float64() * 4,
				CPUIdle: rng.Float64(),
			})
		}
		if round%7 == 6 {
			db.ExpireSys(500 * time.Millisecond) // everyone; then repopulated next round
		}
		query(t, db, s, cons)
	}
}

func TestIndexStaleSnapshotRefused(t *testing.T) {
	db := store.New()
	s := New(db, nil)
	db.PutSys(status.ServerStatus{Host: "x", Load1: 1})
	stale := db.SysView()
	db.PutSys(status.ServerStatus{Host: "y", Load1: 2}) // bumps epoch
	if s.SyncFor(stale, []string{"host_system_load1"}) {
		t.Fatal("SyncFor accepted a stale snapshot")
	}
	if _, _, ok := s.Positions(stale.Epoch, []reqlang.Constraint{{Var: "host_system_load1", Op: reqlang.CmpGT, Val: 0}}, nil, nil); ok {
		t.Fatal("Positions served a stale epoch")
	}
	// The fresh snapshot must work.
	query(t, db, s, []reqlang.Constraint{{Var: "host_system_load1", Op: reqlang.CmpGT, Val: 0}})
}

func TestIndexRandomizedAgainstScan(t *testing.T) {
	clock := time.Unix(4000, 0)
	db := store.NewWithClock(func() time.Time { return clock })
	s := New(db, nil)
	rng := rand.New(rand.NewSource(42))
	fields := []string{"host_system_load1", "host_cpu_free", "host_memory_free", SecurityField}
	ops := []reqlang.CmpOp{reqlang.CmpLT, reqlang.CmpLE, reqlang.CmpGT, reqlang.CmpGE, reqlang.CmpEQ}
	for step := 0; step < 300; step++ {
		clock = clock.Add(time.Second)
		host := fmt.Sprintf("r%02d", rng.Intn(24))
		switch rng.Intn(6) {
		case 0, 1, 2:
			db.PutSys(status.ServerStatus{
				Host:    host,
				Load1:   float64(rng.Intn(8)),
				CPUIdle: float64(rng.Intn(4)) / 4,
				MemFree: uint64(rng.Intn(4)) << 20,
			})
		case 3:
			db.PutSec(status.SecLevel{Host: host, Level: rng.Intn(5)})
		case 4:
			db.ExpireSys(5 * time.Second)
		case 5:
			if r, ok := db.GetSys(host); ok {
				db.PutSys(r.Status) // refresh
			}
		}
		ncons := 1 + rng.Intn(2)
		cons := make([]reqlang.Constraint, ncons)
		for i := range cons {
			cons[i] = reqlang.Constraint{
				Var: fields[rng.Intn(len(fields))],
				Op:  ops[rng.Intn(len(ops))],
				Val: float64(rng.Intn(8)),
			}
		}
		query(t, db, s, cons)
	}
}

// TestFilterIsMatchOverAColumn: the column filter keeps exactly the
// offsets whose value Match passes, in the order given, for every
// operator — NaN and the infinities included.
func TestFilterIsMatchOverAColumn(t *testing.T) {
	col := []float64{math.NaN(), math.Inf(-1), -1, 0, math.Copysign(0, -1), 1, 2, math.Inf(1), 1, math.NaN()}
	for _, op := range []reqlang.CmpOp{reqlang.CmpLT, reqlang.CmpLE, reqlang.CmpGT, reqlang.CmpGE, reqlang.CmpEQ} {
		for _, val := range []float64{0, 1, math.Inf(1), math.NaN()} {
			c := reqlang.Constraint{Op: op, Val: val}
			at := []int{9, 2, 5, 0, 7, 3, 8, 4, 6} // out of order, 1 left out
			var want []int
			for _, i := range at {
				if c.Match(col[i]) {
					want = append(want, i)
				}
			}
			if got := c.Filter(at, col); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Errorf("%v %g: Filter kept %v, Match passes %v", op, val, got, want)
			}
		}
	}
}

// TestBroadDecidesOnTheSortedSpan: a span of a quarter of the column
// is broad and one entry less is not; a one-host span stays selective
// however many patch entries a coming compaction will fold in (the
// estimate counts them all); and the security level keeps the index.
func TestBroadDecidesOnTheSortedSpan(t *testing.T) {
	const hosts = 1000
	db := store.New()
	s := New(db, nil)
	for i := 0; i < hosts; i++ {
		db.PutSys(status.ServerStatus{Host: fmt.Sprintf("h%04d", i), Load1: float64(i)})
		db.PutSec(status.SecLevel{Host: fmt.Sprintf("h%04d", i), Level: 1})
	}
	load := func(op reqlang.CmpOp, v float64) []reqlang.Constraint {
		return []reqlang.Constraint{{Var: "host_system_load1", Op: op, Val: v}}
	}
	query(t, db, s, append(load(reqlang.CmpGE, 0), reqlang.Constraint{Var: SecurityField, Op: reqlang.CmpGE, Val: 0}))
	for _, tc := range []struct {
		cons  []reqlang.Constraint
		broad bool
	}{
		{load(reqlang.CmpLT, hosts/DeclineSpan), true},
		{load(reqlang.CmpLT, hosts/DeclineSpan-1), false},
		{load(reqlang.CmpGE, hosts-hosts/DeclineSpan), true},
		{load(reqlang.CmpGE, hosts-1), false},
		{append(load(reqlang.CmpGE, 0), reqlang.Constraint{Var: SecurityField, Op: reqlang.CmpGE, Val: 0}), false},
	} {
		if got := s.Broad(db.SysView(), []string{"host_system_load1"}, tc.cons); got != tc.broad {
			t.Errorf("Broad(%v) = %t, want %t", tc.cons, got, tc.broad)
		}
	}
	// Rewrite 300 hosts below the sentinel: patch entries, no compaction.
	for i := 0; i < 300; i++ {
		db.PutSys(status.ServerStatus{Host: fmt.Sprintf("h%04d", i), Load1: float64(i) + 0.5})
	}
	query(t, db, s, load(reqlang.CmpGE, hosts-1))
	if s.Broad(db.SysView(), []string{"host_system_load1"}, load(reqlang.CmpGE, hosts-1)) {
		t.Error("a one-host span is broad while the patch is long")
	}
}
