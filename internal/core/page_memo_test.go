package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"smartsock/internal/obs"
	"smartsock/internal/proto"
	"smartsock/internal/reqlang"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// The page level's invariant: a selector that has answered a question
// before — whatever the table did in between — answers it exactly as a
// selector that never has. These tests drive long-lived selectors over
// the wizard-side mirror of plan_differential_test.go through histories
// that replace some pages, copy others unchanged, renumber all of them
// and reload the table, and hold every Result to a fresh selector's.

// TestSelectMemoKeepsTheNewestEpoch: an answer or a page-level update
// from a selection that finishes late on an older snapshot must not
// replace what a newer one recorded (the memo used to reset its whole
// table for it).
func TestSelectMemoKeepsTheNewestEpoch(t *testing.T) {
	var m selMemo
	k, other := memoKey{n: 1}, memoKey{n: 2}
	m.put(k, memoVal{res: Result{Epoch: 6}})
	m.put(k, memoVal{res: Result{Epoch: 5}})
	m.put(other, memoVal{res: Result{Epoch: 5}})
	if v, ok := m.get(6, k); !ok || v.res.Epoch != 6 {
		t.Fatalf("after a late put at epoch 5 the epoch-6 answer is %+v (hit %t)", v.res, ok)
	}

	db := store.New()
	db.PutSys(diffSys(1, 1))
	older := db.SysView()
	db.PutSys(diffSys(1, 2))
	newer := db.SysView()
	e := m.pageLevel(k, newer)
	if e == nil {
		t.Fatal("no page level for a new question")
	}
	e.mu.Unlock()
	if e := m.pageLevel(k, older); e != nil {
		e.mu.Unlock()
		t.Fatalf("a selection on epoch %d took the page level epoch %d used", older.Epoch, newer.Epoch)
	}
}

// memoTable is three full pages of the differential fleet.
func memoTable() *store.DB {
	db := store.New()
	for i := 0; i < 3*store.SysPageLen; i++ {
		db.PutSys(diffSys(i, i%5))
	}
	return db
}

// askAfterPut writes diff-00 (page 0) and asks sel the broad ranked
// question, holds the Result to a fresh selector's and returns the pages
// merged from the memo.
func askAfterPut(t *testing.T, db *store.DB, sel *Selector, prog *reqlang.Program, val int) uint64 {
	t.Helper()
	db.PutSys(diffSys(0, val))
	hits := sel.pageHits.Value()
	res, err := sel.Select(prog, 8, proto.OptRankByExpr)
	want, wantErr := newSelector(t, db, Config{}).PlanThreshold(-1).Select(prog, 8, proto.OptRankByExpr)
	if a, b := encodeResult(res, err), encodeResult(want, wantErr); a != b {
		t.Fatalf("long-lived %sfresh      %s", a, b)
	}
	return sel.pageHits.Value() - hits
}

// TestPageMemoOnlyForARepeatedQuestion: a question asked once leaves no
// page level behind, so a one-off broad request pays nothing for it; its
// repeat builds the level and the next repeat merges from it.
func TestPageMemoOnlyForARepeatedQuestion(t *testing.T) {
	db := memoTable()
	sel := newSelector(t, db, Config{Obs: obs.NewRegistry()}).PlanThreshold(-1)
	prog := mustProg(t, "host_cpu_free >= 0\nhost_cpu_free\n")
	k := memoKey{prog: prog, n: 8, opt: proto.OptRankByExpr}
	for ask, want := range []struct {
		level bool
		hits  uint64
	}{{false, 0}, {true, 0}, {true, 2}} {
		hits := askAfterPut(t, db, sel, prog, 5+ask)
		e := sel.memo.entries[k]
		if level := e != nil && len(e.pages) > 0; level != want.level || (sel.memo.bytes > 0) != want.level {
			t.Errorf("ask %d: page level %t with %d bytes charged, want %t", ask+1, level, sel.memo.bytes, want.level)
		}
		if hits != want.hits {
			t.Errorf("ask %d: %d pages merged from the memo, want %d", ask+1, hits, want.hits)
		}
	}
}

// TestPageMemoCapStartsAgain: questions that stopped coming, whose levels
// fill pageMemoMaxBytes must not keep a hot question from getting one.
// Its level drops theirs, as a full question table is dropped, and its
// next repeat merges pages from it.
func TestPageMemoCapStartsAgain(t *testing.T) {
	db := memoTable()
	sel := newSelector(t, db, Config{Obs: obs.NewRegistry()}).PlanThreshold(-1)
	prog := mustProg(t, "host_cpu_free >= 0\nhost_cpu_free\n")
	askAfterPut(t, db, sel, prog, 5) // the first ask: an answer, no level

	// The stale questions: answered, given a level, never asked again;
	// their reply sizes leave less room than the hot question's level.
	snap := db.SysView()
	pages := (snap.Len() + store.SysPageLen - 1) / store.SysPageLen
	// A page's slot: its leaf and its share of the tree's nodes.
	slot := func(n int) int { return 2 * int(unsafe.Sizeof(pageWinners{})+uintptr(n)*unsafe.Sizeof(candidate{})) }
	var stale []memoKey
	for room := pageMemoMaxBytes; room >= pages*slot(8); room = pageMemoMaxBytes - sel.memo.bytes {
		k := memoKey{n: min(1<<16, (room/pages-slot(0))/(slot(1)-slot(0))), opt: proto.Option(len(stale))}
		sel.memo.put(k, memoVal{res: Result{Epoch: snap.Epoch}})
		e := sel.memo.pageLevel(k, snap)
		if e == nil {
			t.Fatalf("stale question %d (n = %d) got no page level with %d of %d bytes free", len(stale), k.n, room, pageMemoMaxBytes)
		}
		e.mu.Unlock()
		stale = append(stale, k)
	}

	if hits := askAfterPut(t, db, sel, prog, 6); hits != 0 {
		t.Errorf("the repeat merged %d pages before its level existed", hits)
	}
	for _, k := range stale {
		if sel.memo.entries[k] != nil {
			t.Fatalf("stale question n = %d kept its level beside the hot one's", k.n)
		}
	}
	if want := pages * slot(8); sel.memo.bytes != want {
		t.Errorf("%d bytes charged after the table started again, want the hot level's %d", sel.memo.bytes, want)
	}
	if hits := askAfterPut(t, db, sel, prog, 7); hits != uint64(pages-1) {
		t.Errorf("the next repeat merged %d pages from the memo, want %d", hits, pages-1)
	}
}

type memoKind int

const (
	mPut     memoKind = iota // a content change, or a join when the host is absent
	mRefresh                 // the same content again: its page is copied, the epoch stands
	mLeave                   // a tombstone, shipped through the wire codec
	mExpire                  // the source's expiry sweep
	mLoad                    // the source replaced whole: the mirror takes a full snapshot
	mSelect
)

type memoOp struct {
	kind      memoKind
	host, val int
}

func (o memoOp) String() string {
	names := [...]string{"put", "refresh", "leave", "expire", "load", "select"}
	return fmt.Sprintf("%s(h%d,v%d)", names[o.kind], o.host, o.val)
}

// memoPads hosts start the table, over three pages and a bit; the ops
// name memoSlots hosts, so a put can also join anywhere in the host
// order. A join or a departure renews every page, so they are kept
// rare enough for pages to outlive several selections.
const (
	memoPads  = 3*store.SysPageLen + 7
	memoSlots = memoPads + 8
)

// genMemoOps draws a history that asks the corpus about every other
// op, with one reply size throughout, so most selections find most pages
// as the question last saw them.
func genMemoOps(rng *rand.Rand, n int) []memoOp {
	// A Load is rare enough for patched snapshots to follow each other.
	weights := [...]int{mPut: 6, mRefresh: 1, mLeave: 1, mExpire: 1, mLoad: 1, mSelect: 8}
	total := 0
	for _, w := range weights {
		total += w
	}
	size := rng.Intn(len(diffCounts))
	ops := make([]memoOp, 0, n+1)
	for i := 0; i < n; i++ {
		r, kind := rng.Intn(total), mPut
		for ; r >= weights[kind]; kind++ {
			r -= weights[kind]
		}
		if kind == mLoad && rng.Intn(3) > 0 {
			kind = mSelect
		}
		// Half the ops name one of six pads spread over the pages, so a
		// host that leads the reply is often written again while the
		// pages behind it stand.
		op := memoOp{kind: kind, host: rng.Intn(memoSlots), val: rng.Intn(15)}
		if rng.Intn(2) == 0 {
			op.host = 37 * rng.Intn(6)
		}
		if kind == mSelect {
			op.val = size
		}
		ops = append(ops, op)
	}
	return append(ops, memoOp{kind: mSelect, val: size})
}

// loadPads replaces the source with the pads, reported from the future
// so that no expiry in a history takes them: only the ops' hosts leave.
func loadPads(h *diffHarness, val int) {
	pads := make([]status.ServerStatus, memoPads)
	for i := range pads {
		pads[i] = diffSys(i, (i*7+val)%5)
	}
	h.now = h.now.Add(24 * time.Hour)
	h.src.Load(pads, nil, nil)
	h.now = h.now.Add(-24 * time.Hour)
}

// memoCorpus adds to diffCorpus two texts only written hosts satisfy
// (the pads' load stays under 5), ranked and in host order, so a put can
// weaken or empty the reply in front of a page that was evaluated
// behind a stronger one.
var memoCorpus = append(diffCorpus[:len(diffCorpus):len(diffCorpus)],
	"host_system_load1 > 4\nhost_cpu_free\n",
	"host_system_load1 > 4\nuser_preferred_host1 = \"diff-230\"\n")

func applyMemoOp(h *diffHarness, op memoOp) error {
	h.now = h.now.Add(time.Second)
	name := fmt.Sprintf("diff-%02d", op.host)
	switch op.kind {
	case mPut:
		h.src.PutSys(diffSys(op.host, op.val))
	case mRefresh:
		if r, ok := h.src.GetSys(name); ok {
			h.src.PutSys(r.Status)
		}
	case mLeave:
		h.src.ApplySysDelta(nil, [][]byte{[]byte(name)}, nil)
	case mExpire:
		h.src.ExpireSys(20 * time.Second)
	case mLoad:
		loadPads(h, op.val)
	case mSelect:
		if err := h.sync(); err != nil {
			return err
		}
		return compareWithFresh(h, diffCounts[op.val%len(diffCounts)])
	}
	return nil
}

// compareWithFresh asks the harness's three long-lived selectors the
// corpus and holds each Result to a fresh selector of the same
// configuration over the same mirror. A question the memo may not hold
// — a network or security variable, a freshness cutoff — must leave the
// page level unused.
func compareWithFresh(h *diffHarness, n int) error {
	for _, long := range []*Selector{h.planner, h.forced, h.classic} {
		cfg := long.cfg
		cfg.Obs = nil
		fresh, err := New(h.mir, cfg)
		if err != nil {
			return err
		}
		fresh.threshold, fresh.forceScan = long.threshold, long.forceScan
		for pi, prog := range h.progs {
			info := long.infoFor(prog)
			impure := cfg.MaxStatusAge > 0 || info.all.needNet || info.all.sec >= 0
			for _, opt := range []proto.Option{0, proto.OptPartialOK, proto.OptPartialOK | proto.OptRankByExpr} {
				hits := long.pageHits.Value()
				got, gotErr := long.Select(prog, n, opt)
				if impure && long.pageHits.Value() != hits {
					return fmt.Errorf("corpus[%d] %q: an impure question was answered from the page memo", pi, h.srcs[pi])
				}
				want, wantErr := fresh.Select(prog, n, opt)
				if a, b := encodeResult(got, gotErr), encodeResult(want, wantErr); a != b {
					return fmt.Errorf("corpus[%d] %q n=%d opt=%d threshold=%d forced=%t: long-lived %sfresh      %s",
						pi, h.srcs[pi], n, opt, long.threshold, long.forceScan, a, b)
				}
			}
		}
	}
	return nil
}

func newMemoHarness(age time.Duration) *diffHarness {
	h := newDiffHarnessAge(&testing.T{}, age)
	h.setCorpus(&testing.T{}, memoCorpus)
	loadPads(h, 0)
	return h
}

// runPageMemo replays one history with the freshness cutoff off (the
// memo's case) and on (it must stay unused), and reports the pages the
// long-lived selectors merged from the memo.
func runPageMemo(ops []memoOp) (hits uint64, err error) {
	for _, age := range []time.Duration{0, diffStaleAge} {
		h := newMemoHarness(age)
		for i, op := range ops {
			if err := applyMemoOp(h, op); err != nil {
				return hits, fmt.Errorf("MaxStatusAge %v, op %d %v: %w", age, i, op, err)
			}
		}
		for _, s := range []*Selector{h.planner, h.forced, h.classic} {
			hits += s.pageHits.Value()
		}
	}
	return hits, nil
}

func TestPageMemoMatchesFreshSelector(t *testing.T) {
	sequences := 16
	if testing.Short() {
		sequences = 4
	}
	run := func(ops []memoOp) error { _, err := runPageMemo(ops); return err }
	var hits uint64
	for seed := int64(0); seed < int64(sequences); seed++ {
		ops := genMemoOps(rand.New(rand.NewSource(seed)), 48)
		h, err := runPageMemo(ops)
		if err != nil {
			minimal := shrink(ops, run)
			t.Logf("seed %d minimal failing sequence (%d of %d ops): %v", seed, len(minimal), len(ops), minimal)
			t.Fatalf("seed %d: %v", seed, err)
		}
		hits += h
	}
	if hits == 0 {
		t.Fatal("no page was ever merged from the memo: the suite tests nothing")
	}
}

// memoHost is host hNNN with the given CPU idle share and nothing else.
func memoHost(i int, idle float64) status.ServerStatus {
	return status.ServerStatus{Host: fmt.Sprintf("h%03d", i), CPUIdle: idle}
}

// idleTable is three full pages of hosts idle 0.1 but for the given ones.
func idleTable(idle map[int]float64) *store.DB {
	db := store.New()
	for i := 0; i < 3*store.SysPageLen; i++ {
		db.PutSys(memoHost(i, 0.1+idle[i]))
	}
	return db
}

// TestPageMemoRevisitsPagesBehindAWorseReply: a page evaluated under the
// tree's reply as its bound keeps only the candidates not after it. When
// a write weakens the reply, the page is evaluated again, or a candidate
// it left out would be missed.
func TestPageMemoRevisitsPagesBehindAWorseReply(t *testing.T) {
	db := idleTable(map[int]float64{20: 0.2, store.SysPageLen + 5: 0.4}) // h020 on page 0, h075 on page 1
	reg := obs.NewRegistry()
	// The walk: an index would serve a text this selective, and the page
	// level serves the walk and the column filter only.
	sel := newSelector(t, db, Config{Obs: reg}).PlanThreshold(-1)
	prog := mustProg(t, "host_cpu_free > 0.2\nhost_cpu_free\n")
	if _, err := sel.Select(prog, 1, proto.OptRankByExpr); err != nil { // the first ask: no page level
		t.Fatal(err)
	}
	best := 2*store.SysPageLen + 5 // h145, on page 2
	for _, step := range []struct {
		write    status.ServerStatus
		want     string
		pageHits uint64
	}{
		// The repeat builds the tree, each page bounded by the reply in
		// front of it: page 0 by nothing, so its list keeps h020.
		{memoHost(best, 0.9), "h145", 0},
		// Page 1 is evaluated again under the tree's reply, h145, and
		// leaves h075 out; pages 0 and 2 come from the memo.
		{memoHost(store.SysPageLen+10, 0.15), "h145", 2},
		// The best host stops qualifying: the merged lists leave h020 in
		// front, behind the bound pages 1 and 2 were evaluated under, so
		// both are evaluated again.
		{memoHost(best, 0.05), "h075", 1},
		{memoHost(best+5, 0.3), "h075", 2}, // a write to page 2 leaves pages 0 and 1 to the memo
	} {
		db.PutSys(step.write)
		before := reg.Snapshot().Counters["core_page_hits"]
		res, err := sel.Select(prog, 1, proto.OptRankByExpr)
		if err != nil || fmt.Sprint(res.Servers) != "["+step.want+"]" {
			t.Fatalf("after %s = %g: chose %v (%v), want %s", step.write.Host, step.write.CPUIdle, res.Servers, err, step.want)
		}
		if hits := reg.Snapshot().Counters["core_page_hits"] - before; hits != step.pageHits {
			t.Errorf("after %s = %g: %d pages merged from the memo, want %d", step.write.Host, step.write.CPUIdle, hits, step.pageHits)
		}
	}
}

// TestPageMemoBoundIsInclusive: a page is evaluated under the tree's n-th
// best, which may sit on the page itself or on a later one. The page's
// list keeps a candidate equal to the bound, so a write beside the n-th
// best does not lose it, and a candidate of an earlier page that ties the
// bound on everything but position beats it. Either way the repeat
// evaluates the written page once and nothing else.
func TestPageMemoBoundIsInclusive(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   string
		n     int
		opt   proto.Option
		idle  map[int]float64
		write status.ServerStatus
		want  string
	}{
		// h005 is the reply and the bound of its own page.
		{"ranked, the n-th on the written page", "host_cpu_free > 0.2\nhost_cpu_free\n", 1, proto.OptRankByExpr,
			map[int]float64{5: 0.8, store.SysPageLen + 5: 0.4}, memoHost(10, 0.15), "[h005]"},
		// The bound is h145, unpreferred, on page 2: h010 ties it on
		// everything but position, and comes first.
		{"unranked, the n-th on a later page", "host_cpu_free > 0.2\nuser_preferred_host1 = \"h150\"\n", 2, 0,
			map[int]float64{145: 0.5, 150: 0.5}, memoHost(10, 0.9), "[h150 h010]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := idleTable(tc.idle)
			reg := obs.NewRegistry()
			sel := newSelector(t, db, Config{Obs: reg}).PlanThreshold(-1)
			prog := mustProg(t, tc.src)
			for i := range 2 { // the first ask answers, the repeat builds the tree
				db.PutSys(memoHost(3*store.SysPageLen-1, 0.11+0.01*float64(i)))
				if _, err := sel.Select(prog, tc.n, tc.opt); err != nil {
					t.Fatal(err)
				}
			}
			db.PutSys(tc.write)
			before := reg.Snapshot().Counters
			res, err := sel.Select(prog, tc.n, tc.opt)
			after := reg.Snapshot().Counters
			if err != nil || fmt.Sprint(res.Servers) != tc.want {
				t.Fatalf("after %s = %g: chose %v (%v), want %s", tc.write.Host, tc.write.CPUIdle, res.Servers, err, tc.want)
			}
			evals, hits := after["core_record_evals"]-before["core_record_evals"], after["core_page_hits"]-before["core_page_hits"]
			if evals != store.SysPageLen || hits != 2 {
				t.Errorf("the repeat evaluated %d records and merged %d pages from the memo, want the written page's %d and 2",
					evals, hits, store.SysPageLen)
			}
		})
	}
}

// TestPageMemoConcurrentChurn runs eight readers over three questions
// the page level serves while a writer changes one host at a time. Run
// under -race it pins the level's locking; every Result must be the
// reference selection over the table at the Result's epoch, which a
// replay of the writer's log rebuilds afterwards.
func TestPageMemoConcurrentChurn(t *testing.T) {
	table := make([]status.ServerStatus, memoPads)
	for i := range table {
		table[i] = diffSys(i, i%5)
	}
	reg := obs.NewRegistry()
	db := store.New()
	db.Load(table, nil, nil)
	sel := newSelector(t, db, Config{Obs: reg, ServicePort: 9000})
	questions := []struct {
		src string
		n   int
		opt proto.Option
	}{
		{"host_cpu_free >= 0\nhost_cpu_bogomips * host_cpu_free\n", 8, proto.OptPartialOK | proto.OptRankByExpr},
		{"host_system_load1 < 4\nuser_preferred_host1 = \"diff-150\"\nuser_denied_host1 = \"diff-07\"\n", 8, proto.OptPartialOK},
		{"host_system_load1 <= 3\npow(2 - host_system_load1, 0.5) * host_cpu_bogomips\n", proto.MaxServers, proto.OptPartialOK | proto.OptRankByExpr},
	}
	compiled := make([]*reqlang.Program, len(questions))
	for i, q := range questions {
		compiled[i] = mustProg(t, q.src)
	}
	type answer struct {
		q   int
		res Result
		err error
	}

	var log []status.ServerStatus // the writer's puts, in order
	var selects, writes atomic.Int64
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(3))
		for i := 0; ; i++ {
			// About one write per four selections, so that a selection
			// after a write finds most pages unchanged; the readers wait
			// for the writer as it waits for them, so a fast reader does
			// not finish its selections on a few epochs.
			for selects.Load() < int64(4*i) {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			s := diffSys(rng.Intn(memoPads), rng.Intn(5))
			s.Load15 = float64(i + 1) // every put moves content: one epoch each
			db.PutSys(s)
			log = append(log, s)
			writes.Add(1)
		}
	}()
	const readers, selectsPer = 8, 150
	answers := make([][]answer, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < selectsPer; i++ {
				for selects.Load() >= 4*writes.Load()+4 {
					runtime.Gosched()
				}
				q := (r + i) % len(questions)
				res, err := sel.Select(compiled[q], questions[q].n, questions[q].opt)
				answers[r] = append(answers[r], answer{q, res, err})
				selects.Add(1)
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	writer.Wait()

	var all []answer
	for _, a := range answers {
		all = append(all, a...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].res.Epoch < all[j].res.Epoch })
	ref := store.New()
	ref.Load(table, nil, nil)
	refSel := newSelector(t, ref, Config{ServicePort: 9000})
	applied := 0
	for _, a := range all {
		for ref.SysEpoch() < a.res.Epoch {
			if applied == len(log) {
				t.Fatalf("a Result at epoch %d, past the writer's last (%d)", a.res.Epoch, ref.SysEpoch())
			}
			ref.PutSys(log[applied])
			applied++
		}
		q := questions[a.q]
		want, wantErr := referenceSelect(refSel, compiled[a.q], q.n, q.opt)
		if fmt.Sprint(a.res.Servers, a.res.Shortfall, a.err) != fmt.Sprint(want.Servers, want.Shortfall, wantErr) {
			t.Fatalf("%q at epoch %d: %v (short %d, %v), reference %v (short %d, %v)",
				q.src, a.res.Epoch, a.res.Servers, a.res.Shortfall, a.err, want.Servers, want.Shortfall, wantErr)
		}
	}
	c := reg.Snapshot().Counters
	if c["core_page_hits"] == 0 {
		t.Errorf("no page merged from the memo in %d selections over %d writes", readers*selectsPer, len(log))
	}
	t.Logf("%d writes, memo hits %d, page hits %d, evaluations %d", len(log), c["core_memo_hits"], c["core_page_hits"], c["core_record_evals"])
}

// TestWarmPageLevelAllocs pins what the page level costs a report
// followed by the broad ranked request of TestPutThenRankedSelectAllocs:
// with the level warm, the selection allocates the reply's Servers slice
// and nothing else beyond what the report's snapshot rebuild does.
func TestWarmPageLevelAllocs(t *testing.T) {
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
	reg := obs.NewRegistry()
	sel := newSelector(t, db, Config{Obs: reg})
	prog := mustProg(t, "host_cpu_free > 0.1\nhost_system_load1 < 4\nhost_memory_free > 16\nscore = host_cpu_bogomips * host_cpu_free\nscore\n")
	next := 0
	put := func() {
		recs[next].CPUIdle = rng.Float64()
		db.PutSys(recs[next])
		next = (next + 1) % hosts
	}
	run := func() {
		put()
		res, err := sel.Select(prog, 8, proto.OptRankByExpr)
		if err != nil || len(res.Servers) != 8 {
			t.Fatalf("%v, %d servers", err, len(res.Servers))
		}
	}
	run() // warm the plan, the index columns and the scratch
	run() // the repeat builds the page level
	rebuild := testing.AllocsPerRun(50, func() { put(); db.SysView() })
	hits := reg.Snapshot().Counters["core_page_hits"]
	if got := testing.AllocsPerRun(50, run); got > rebuild+1 {
		t.Errorf("%.0f allocs per put + ranked Select, the put's rebuild alone %.0f: the selection allocates more than its Servers slice", got, rebuild)
	}
	if reg.Snapshot().Counters["core_page_hits"] == hits {
		t.Error("the page level served no page")
	}
}

// TestPutThenWarmSelectAllocs pins a report and the broad ranked request
// after it, with the page level warm and no snapshot held outside the
// selector: the selection pins its snapshot and releases it, so the
// rebuild writes the last one in place, and the pair allocates the
// reply's Servers slice and nothing else.
func TestPutThenWarmSelectAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-host table; under the race detector sync.Pool drops the scratch at random")
	}
	const hosts = 20_000
	rng := rand.New(rand.NewSource(22))
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
		if res, err := sel.Select(prog, 8, proto.OptRankByExpr); err != nil || len(res.Servers) != 8 {
			t.Fatalf("%v, %d servers", err, len(res.Servers))
		}
	}
	run() // warm the plan, the index columns and the scratch
	run() // the repeat builds the page level
	if got := testing.AllocsPerRun(50, run); got > 1 {
		t.Errorf("%.0f allocs per put + warm ranked Select, want at most 1, the Servers slice", got)
	}
}

// TestLazyIndexMatchesFreshSelector: a broad question the index declines
// never brings it in step, while selective questions asked between its
// repeats still read the index. Over more writes than the store's
// changelog ring holds (4096), every Result equals a fresh selector's;
// the broad repeats, served from their page level, apply no delta and
// resync nothing; and a selective question catches the index up with
// one delta, from the ring or, when the ring has passed the index's
// base, from the full-table scan.
func TestLazyIndexMatchesFreshSelector(t *testing.T) {
	table := make([]status.ServerStatus, memoPads)
	for i := range table {
		table[i] = diffSys(i, i%5)
	}
	db := store.New()
	db.Load(table, nil, nil)
	reg := obs.NewRegistry()
	sel := newSelector(t, db, Config{Obs: reg})
	broad := mustProg(t, "host_cpu_free >= 0\nhost_cpu_free\n")
	selective := mustProg(t, "host_cpu_bogomips > 3000\nhost_cpu_free\n") // 16 of the 217 hosts
	type counts struct{ applies, resyncs, declines, pageHits uint64 }
	read := func() counts {
		s := reg.Snapshot()
		return counts{s.Histograms["index_apply_delta"].Count, s.Counters["index_resyncs"], s.Counters["index_declines"], s.Counters["core_page_hits"]}
	}
	ask := func(prog *reqlang.Program) (before, after counts) {
		t.Helper()
		before = read()
		got, gotErr := sel.Select(prog, 8, proto.OptRankByExpr)
		want, wantErr := newSelector(t, db, Config{}).Select(prog, 8, proto.OptRankByExpr)
		if a, b := encodeResult(got, gotErr), encodeResult(want, wantErr); a != b {
			t.Fatalf("long-lived %sfresh      %s", a, b)
		}
		return before, read()
	}
	rng := rand.New(rand.NewSource(27))
	written := 0
	put := func(writes int) {
		for range writes {
			s := diffSys(rng.Intn(memoPads), rng.Intn(5))
			written++
			s.Load15 = float64(written) // every put moves content: the epoch memo misses
			db.PutSys(s)
		}
	}
	// The first ask creates the index's column and answers, the second
	// fills the page level.
	for range 2 {
		put(1)
		ask(broad)
	}
	sinceSync, passed, caughtUp := 0, 0, 0
	for round := range 60 {
		writes := 1 + rng.Intn(8) // most pages stay as the level saw them
		if round%15 == 14 {
			writes = 5000
		}
		put(writes)
		sinceSync += writes
		if rng.Intn(3) > 0 {
			before, after := ask(broad)
			if after.applies != before.applies || after.resyncs != before.resyncs || after.declines != before.declines+1 {
				t.Fatalf("round %d: a broad repeat moved the index: %+v → %+v", round, before, after)
			}
			continue
		}
		before, after := ask(selective)
		if sinceSync > 4096 {
			passed++
		} else {
			caughtUp++
		}
		if got := (counts{applies: after.applies - before.applies, resyncs: after.resyncs - before.resyncs}); got != (counts{applies: 1}) {
			t.Fatalf("round %d: a selective question %d writes after the index's last sync: %+v, want one delta", round, sinceSync, got)
		}
		sinceSync = 0
	}
	if passed == 0 || caughtUp == 0 || read().pageHits == 0 {
		t.Fatalf("%d catch-ups past the ring, %d within it, %d pages merged from the memo: the history exercises too little",
			passed, caughtUp, read().pageHits)
	}
}
