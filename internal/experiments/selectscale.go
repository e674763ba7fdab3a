package experiments

// The selection-planner experiment (beyond the paper): per-request
// cost of the wizard's Select at fleet scale, with the full-table
// scan the thesis implies versus the delta-maintained per-field
// indexes. DESIGN.md's "Selection planner" section and EXPERIMENTS.md
// quote these rows; scripts/bench.sh measures the same matrix with
// the Go benchmark harness into BENCH_select.json.

import (
	"fmt"
	"math/rand"
	"time"

	"smartsock/internal/core"
	"smartsock/internal/obs"
	"smartsock/internal/proto"
	"smartsock/internal/reqlang"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

func init() {
	register("select.scale", selectScale)
}

// selectScale loads host tables at increasing scale and times the
// same requirements under the historical scan and the planner.
func selectScale(o Options) (*Table, error) {
	sizes := []int{10_000, 100_000}
	if o.Quick {
		sizes = []int{10_000}
	}
	shapes := []struct {
		label, req string
		repeats    int
	}{
		{"selective (~0.5% pass)", "host_cpu_free > 0.995\nhost_memory_free > 1\nhost_cpu_free * 100\n", 40},
		{"broad (~80% pass)", "host_cpu_free > 0.2\nhost_cpu_free * 100\n", 5},
		{"unindexable", "host_cpu_free + 0 > 0.995\nhost_cpu_free * 100\n", 10},
	}
	modes := []struct {
		label     string
		threshold int
	}{
		{"scan", -1},
		{"plan", 1},
	}

	t := &Table{
		ID:      "select.scale",
		Title:   "Selection cost at fleet scale: full-table scan vs indexed planner",
		Columns: []string{"hosts", "requirement", "mode", "us/select", "evals/select", "pruned/select"},
	}
	for _, n := range sizes {
		db := store.New()
		db.Load(fleetTable(n, o.Seed), nil, nil)
		db.SysView()
		for _, shape := range shapes {
			prog, err := reqlang.Parse(shape.req)
			if err != nil {
				return nil, fmt.Errorf("select.scale: %w", err)
			}
			for _, mode := range modes {
				reg := obs.NewRegistry()
				sel, err := core.New(db, core.Config{
					Obs:           reg,
					MaxStatusAge:  24 * time.Hour, // impure: defeats the epoch memo
					PlanThreshold: mode.threshold,
					ServicePort:   9000,
				})
				if err != nil {
					return nil, fmt.Errorf("select.scale: %w", err)
				}
				// Warm-up builds the plan cache and index columns once.
				if _, err := sel.Select(prog, 8, proto.OptPartialOK|proto.OptRankByExpr); err != nil {
					return nil, fmt.Errorf("select.scale warm-up: %w", err)
				}
				repeats := shape.repeats
				if o.Quick {
					repeats = max(repeats/4, 2)
				}
				before := reg.Snapshot().Counters
				start := time.Now()
				var pruned int
				for i := 0; i < repeats; i++ {
					res, err := sel.Select(prog, 8, proto.OptPartialOK|proto.OptRankByExpr)
					if err != nil {
						return nil, fmt.Errorf("select.scale: %w", err)
					}
					pruned += res.Pruned
				}
				elapsed := time.Since(start)
				after := reg.Snapshot().Counters
				evals := after["core_record_evals"] - before["core_record_evals"]
				t.AddRow(
					fmt.Sprintf("%d", n),
					shape.label,
					mode.label,
					fmt.Sprintf("%.0f", float64(elapsed.Microseconds())/float64(repeats)),
					fmt.Sprintf("%.0f", float64(evals)/float64(repeats)),
					fmt.Sprintf("%.0f", float64(pruned)/float64(repeats)),
				)
			}
		}
	}
	t.Notes = append(t.Notes,
		"scan = PlanThreshold -1 (every record visited, the thesis behaviour), plan = candidates from the indexed selection planner; one evaluation loop serves both",
		"unindexable requirements have no plan and visit every record; their planner row measures the planner's overhead",
		"scripts/bench.sh runs the same matrix through go test -bench into BENCH_select.json",
	)
	return t, nil
}

// fleetTable builds n deterministic host records with a spread of
// loads, idle fractions and memory.
func fleetTable(n int, seed int64) []status.ServerStatus {
	rng := rand.New(rand.NewSource(seed + int64(n)))
	recs := make([]status.ServerStatus, n)
	for i := range recs {
		recs[i] = status.ServerStatus{
			Host:     fmt.Sprintf("fleet-%07d", i),
			Load1:    rng.Float64() * 8,
			CPUIdle:  rng.Float64(),
			Bogomips: 1000 + rng.Float64()*5000,
			MemTotal: 1 << 30,
			MemFree:  uint64(1+rng.Intn(512)) << 20,
		}
	}
	return recs
}
