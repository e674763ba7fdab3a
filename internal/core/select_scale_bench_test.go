package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"smartsock/internal/proto"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// BenchmarkSelectScale measures what the selection planner buys at
// fleet scale: the same requirement against the same table, answered
// by the historical full scan (PlanThreshold(-1)) and by the indexed
// planner. Three requirement shapes cover the planner's regimes, and a
// fourth the user-side parameters:
//
//   - selective: ~0.5% of hosts pass the indexed prefix, the planner's
//     best case — candidate generation touches only the sorted range;
//   - broad: ~80% pass, the worst indexable case — pruning saves
//     little, the index must not cost much;
//   - unindexable: the leading statement defeats extraction
//     (arithmetic operand), so the planner immediately falls back to
//     the historical scan; its overhead must stay in the noise;
//   - denied: broad with a user_denied_host1 line, so every lane also
//     stores a host string and every qualifier's hosts are matched;
//   - aliased: denied over a fleet whose every name carries a port and
//     a capital ("Fleet-0000007:9000"), with one host joining before
//     each selection: the case a per-fleet cache of canonical names
//     cannot help, so it bounds what the list costs (not at 1M hosts,
//     where each run would load a fresh million-host table).
//
// The per-iteration "evals/op" metric counts requirement evaluations
// through the selector's core_record_evals counter: the acceptance bar
// is a ≥100× reduction for the selective case at 100k hosts.
func BenchmarkSelectScale(b *testing.B) {
	sizes := []struct {
		name string
		n    int
	}{
		{"10k", 10_000},
		{"100k", 100_000},
		{"1m", 1_000_000},
	}
	shapes := []struct {
		name string
		req  string
		join bool // the aliased fleet, one join per selection
	}{
		{"selective", "host_cpu_free > 0.995\nhost_memory_free > 1\nhost_cpu_free * 100\n", false},
		{"broad", "host_cpu_free > 0.2\nhost_cpu_free * 100\n", false},
		{"unindexable", "host_cpu_free + 0 > 0.995\nhost_cpu_free * 100\n", false},
		{"denied", "host_cpu_free > 0.2\nuser_denied_host1 = \"fleet-0000007\"\nhost_cpu_free * 100\n", false},
		{"aliased", "host_cpu_free > 0.2\nuser_denied_host1 = \"fleet-0000007\"\nhost_cpu_free * 100\n", true},
	}
	modes := []struct {
		name      string
		threshold int
	}{
		{"scan", -1},
		{"plan", 1},
	}
	for _, size := range sizes {
		for _, shape := range shapes {
			if shape.join && size.n > 100_000 {
				continue
			}
			for _, mode := range modes {
				name := fmt.Sprintf("%s/%s/%s", size.name, shape.name, mode.name)
				b.Run(name, func(b *testing.B) {
					db := scaleDB(b, size.n)
					if shape.join {
						db = fleetDB(size.n, "Fleet-%07d:9000") // a fresh table: the run adds hosts
					}
					sel := newSelector(b, db, Config{
						// A freshness cutoff keeps every iteration impure so
						// the epoch memo never shortcuts the measurement.
						MaxStatusAge: 24 * time.Hour,
						ServicePort:  9000,
					}).PlanThreshold(mode.threshold)
					prog := mustProg(b, shape.req)
					// Warm up: compiles the plan and builds the index
					// columns once, off the measured path (steady-state
					// requests find both ready).
					if _, err := sel.Select(prog, 8, proto.OptPartialOK|proto.OptRankByExpr); err != nil {
						b.Fatal(err)
					}
					evalsBefore := sel.recordEvals.Value()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if shape.join {
							db.PutSys(status.ServerStatus{Host: fmt.Sprintf("Fleet-j%07d:9000", i), CPUIdle: 0.5, MemTotal: 1 << 30, MemFree: 1 << 20})
						}
						if _, err := sel.Select(prog, 8, proto.OptPartialOK|proto.OptRankByExpr); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					evals := sel.recordEvals.Value() - evalsBefore
					b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
				})
			}
		}
	}
}

// scaleDBs caches one populated database per size: filling a
// million-host table dominates any measured interval, so benchmarks
// share it. Content is deterministic in the size.
var scaleDBs = map[int]*store.DB{}

func scaleDB(b *testing.B, n int) *store.DB {
	if db, ok := scaleDBs[n]; ok {
		return db
	}
	db := fleetDB(n, "fleet-%07d")
	scaleDBs[n] = db
	return db
}

// fleetDB loads n hosts named by format from their index.
func fleetDB(n int, format string) *store.DB {
	rng := rand.New(rand.NewSource(int64(n)))
	recs := make([]status.ServerStatus, n)
	for i := range recs {
		recs[i] = status.ServerStatus{
			Host:     fmt.Sprintf(format, i),
			Load1:    rng.Float64() * 8,
			CPUIdle:  rng.Float64(),
			Bogomips: 1000 + rng.Float64()*5000,
			MemTotal: 1 << 30,
			MemFree:  uint64(1+rng.Intn(512)) << 20,
		}
	}
	db := store.New()
	db.Load(recs, nil, nil)
	db.SysView() // materialise the snapshot outside any timed region
	return db
}
