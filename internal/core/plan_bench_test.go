package core

import (
	"fmt"
	"math/rand"
	"testing"

	"smartsock/internal/proto"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// BenchmarkIndexCatchUp sweeps what the planner's catch-up rule weighs
// (DESIGN.md "Selection planner"): a selective question asked k writes
// after the index last caught up, answered by the index — the catch-up,
// then the index's answer — and by the column filter (ForceScan), on
// tables of three sizes. Two shapes: one constraint stopping at its one
// qualifier, half-way down the table (fresh_1k's sentinel question), and
// the eight best of 0.5 % of the hosts by a score. "ring+" is one write
// more than the store's changelog ring holds, so the catch-up is the
// full-table scan delta. The writes, and the snapshot rebuild after
// them, are outside the timed region; the iteration count bounds them,
// so run it with an explicit one:
//
//	go test -run='^$' -bench=IndexCatchUp -benchtime=200x -cpu 1 ./internal/core/
func BenchmarkIndexCatchUp(b *testing.B) {
	shapes := []struct {
		name, req string
		n         int
		opt       proto.Option
	}{
		{"stop", sentinel, 1, 0},
		{"ranked", "host_cpu_free > 0.995\nhost_cpu_free * 100\n", 8, proto.OptPartialOK | proto.OptRankByExpr},
	}
	for _, rows := range []int{1_000, 20_000, 100_000} {
		db := fleetDB(rows, "fleet-%07d")
		mid := rows / 2 // the one host "stop" finds, after half the table
		db.PutSys(status.ServerStatus{Host: fmt.Sprintf("fleet-%07d", mid), Load1: 50, MemTotal: 1 << 30, MemFree: 1 << 20})
		rng := rand.New(rand.NewSource(int64(rows)))
		put := func(k int) {
			for range k {
				h := (mid + 1 + rng.Intn(rows-1)) % rows
				db.PutSys(status.ServerStatus{Host: fmt.Sprintf("fleet-%07d", h), Load1: rng.Float64() * 8,
					CPUIdle: rng.Float64(), Bogomips: 1000 + rng.Float64()*5000, MemTotal: 1 << 30, MemFree: uint64(1+rng.Intn(512)) << 20})
			}
			db.PinSys().Unpin() // the snapshot's rebuild is the store's, not the source's
		}
		for _, k := range []int{1, 8, 64, 512, store.ChangeLogCap + 1} {
			writes := fmt.Sprint(k)
			if k > store.ChangeLogCap {
				writes = "ring+"
			}
			for _, shape := range shapes {
				for _, mode := range []string{"index", "filter"} {
					b.Run(fmt.Sprintf("%dk/%s/%s/%s", rows/1000, writes, shape.name, mode), func(b *testing.B) {
						sel := newSelector(b, db, Config{})
						if mode == "filter" {
							sel.ForceScan()
						}
						prog := mustProg(b, shape.req)
						if _, err := sel.Select(prog, shape.n, shape.opt); err != nil {
							b.Fatal(err)
						}
						b.ResetTimer()
						for range b.N {
							b.StopTimer()
							put(k)
							b.StartTimer()
							if mode == "index" {
								sel.CatchUp(prog)
							}
							if _, err := sel.Select(prog, shape.n, shape.opt); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}
