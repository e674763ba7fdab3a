package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"smartsock/internal/index"
	"smartsock/internal/obs"
	"smartsock/internal/proto"
	"smartsock/internal/reqlang"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// The planner's catch-up rule (index.Set.Outrun) on the traffic it is
// for: a selective question after every status epoch takes the column
// filter and leaves the index behind; a table the writes have left
// alone, or nearly, comes back to the index; a large table with one
// write per question keeps it throughout. Every answer equals the
// forced column filter's.

// catchUpRig is a fleetDB table, a selector over it whose counters the
// tests read, and a ForceScan selector to hold its answers to.
type catchUpRig struct {
	t           *testing.T
	db          *store.DB
	sel, forced *Selector
	reg         *obs.Registry
	rng         *rand.Rand
	rows        int
}

func newCatchUpRig(t *testing.T, rows int, cfg Config) *catchUpRig {
	r := &catchUpRig{t: t, db: fleetDB(rows, "fleet-%07d"), reg: obs.NewRegistry(), rng: rand.New(rand.NewSource(int64(rows))), rows: rows}
	r.forced = newSelector(t, r.db, cfg).ForceScan()
	cfg.Obs = r.reg
	r.sel = newSelector(t, r.db, cfg)
	return r
}

// put rewrites writes random hosts, the last of them loaded past any
// other: the host the sentinel question finds.
func (r *catchUpRig) put(writes int) {
	for i := range writes {
		s := status.ServerStatus{Host: fmt.Sprintf("fleet-%07d", r.rng.Intn(r.rows)), Load1: r.rng.Float64() * 8,
			CPUIdle: r.rng.Float64(), Bogomips: 1000 + r.rng.Float64()*5000, MemTotal: 1 << 30, MemFree: uint64(1+r.rng.Intn(512)) << 20}
		if i == writes-1 {
			s.Load1 = 50
		}
		r.db.PutSys(s)
	}
}

// sentinel is fresh_1k's question: the first host loaded past 40.
const sentinel = "host_system_load1 > 40\n"

// ask selects with prog on both selectors, fails on any difference, and
// returns how far the index's delta applies and the declines moved.
func (r *catchUpRig) ask(prog *reqlang.Program) (applies, declines uint64) {
	r.t.Helper()
	read := func() (uint64, uint64) {
		s := r.reg.Snapshot()
		return s.Histograms["index_apply_delta"].Count, s.Counters["index_declines"]
	}
	a0, d0 := read()
	got, gotErr := r.sel.Select(prog, 1, proto.OptPartialOK)
	want, wantErr := r.forced.Select(prog, 1, proto.OptPartialOK)
	if a, b := encodeResult(got, gotErr), encodeResult(want, wantErr); a != b {
		r.t.Fatalf("planner %sforced  %s", a, b)
	}
	a1, d1 := read()
	return a1 - a0, d1 - d0
}

// TestEpochStreamNeverPaysTheIndex: fresh_1k's traffic, 64 writes before
// every ask of a selective question on 1 000 hosts, for long enough
// that the writes pass the store's changelog ring twice. The first ask
// builds the index; no later one applies a delta to it, and each is one
// decline.
func TestEpochStreamNeverPaysTheIndex(t *testing.T) {
	r := newCatchUpRig(t, 1000, Config{})
	prog := mustProg(t, sentinel)
	r.ask(prog)
	for i := range 2 * store.ChangeLogCap / 64 {
		r.put(64)
		if applies, declines := r.ask(prog); applies != 0 || declines != 1 {
			t.Fatalf("epoch %d: %d delta applies, %d declines; want 0 and 1", i, applies, declines)
		}
	}
}

// TestQuietTableComesBackToTheIndex: after a burst of writes past the
// changelog ring, selective questions the epoch memo cannot answer (a
// freshness cutoff makes them impure) decline until the rule's tally
// pays for the full-scan catch-up, and the index serves every question
// after it. Each ask adds at least a filter pass less one write's
// catch-up to the tally, so it catches up within that many asks; with
// no writes, exactly at the ask the whole passes reach it. The sparse
// variant writes once every ten asks, and a write costs less to apply
// than the table to filter, so it converges to the index too.
func TestQuietTableComesBackToTheIndex(t *testing.T) {
	const rows = 4000
	filter, cost := uint64(rows*index.FilterRow), uint64(rows*index.CatchUpRow)
	if filter <= index.CatchUpWrite {
		t.Fatalf("a write costs %d to apply, the table %d to filter: the sparse variant would not converge", index.CatchUpWrite, filter)
	}
	for _, every := range []int{0, 10} {
		r := newCatchUpRig(t, rows, Config{MaxStatusAge: time.Hour})
		prog := mustProg(t, sentinel)
		r.ask(prog)
		r.put(store.ChangeLogCap + 1)
		bound := int((cost+filter-1)/filter) + 1 // the first ask after the burst adds nothing
		if every > 0 {
			bound = int((cost+filter-index.CatchUpWrite-1)/(filter-index.CatchUpWrite)) + 1
		}
		caughtUp := 0
		// Ask a few times past the bound, writes among them when sparse.
		for ask := 1; ask <= bound+3*every+3; ask++ {
			if every > 0 && ask%every == 0 {
				r.put(1)
			}
			switch applies, declines := r.ask(prog); {
			case caughtUp == 0 && applies == 0 && declines == 1:
			case caughtUp == 0 && applies == 1 && declines == 0:
				caughtUp = ask
			case caughtUp == 0 || declines != 0 || applies > 1:
				t.Fatalf("one write every %d asks, ask %d (caught up at %d): %d delta applies, %d declines", every, ask, caughtUp, applies, declines)
			}
		}
		if caughtUp == 0 || caughtUp > bound || every == 0 && caughtUp != bound {
			t.Fatalf("one write every %d asks: caught up at ask %d, want by ask %d", every, caughtUp, bound)
		}
	}
}

// TestOnePutPerAskKeepsTheIndex: on 100 000 hosts one write costs far
// less to apply than the table to filter, so a question after every
// put reads the index every time, one delta each.
func TestOnePutPerAskKeepsTheIndex(t *testing.T) {
	r := newCatchUpRig(t, 100_000, Config{})
	prog := mustProg(t, sentinel)
	r.ask(prog)
	for i := range 32 {
		r.put(1)
		if applies, declines := r.ask(prog); applies != 1 || declines != 0 {
			t.Fatalf("ask %d: %d delta applies, %d declines; want 1 and 0", i, applies, declines)
		}
	}
}
