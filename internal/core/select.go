// Package core implements the wizard's server selection engine
// (§3.6.1): given the three status databases and a parsed requirement
// program, it evaluates every candidate server, applies the user's
// denied/preferred host lists, and returns the best server set.
// Candidates are evaluated a snapshot page at a time: their variables
// are bound by column into one reqlang batch and the requirement runs
// over the whole page before the lanes are ranked.
//
// This is the paper's primary contribution distilled: selection moves
// out of each middleware and into a shared socket-level service, so
// any number of middleware implementations can share one set of
// probes and monitors.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"smartsock/internal/index"
	"smartsock/internal/obs"
	"smartsock/internal/proto"
	"smartsock/internal/reqlang"
	"smartsock/internal/store"
)

// Config holds the deployment-specific knowledge the selector needs
// beyond the databases themselves.
type Config struct {
	// LocalMonitor names the network monitor of the requesting
	// client's group; monitor_network_delay/bw for a server are the
	// metrics from this monitor to the server's group (§3.3.3).
	LocalMonitor string
	// GroupOf maps a server host to its network monitor's name. Nil
	// means network variables are unavailable (single-group
	// deployments, where LAN metrics do not matter per §3.3.3).
	GroupOf func(host string) string
	// ServicePort is appended to selected hosts that carry no port of
	// their own, producing dialable addresses.
	ServicePort int
	// MaxStatusAge drops server records older than this before
	// evaluation, so a server whose probe has gone silent falls out of
	// candidate lists even before the monitor's expiry sweep removes
	// its record. Zero disables the filter (historical behaviour).
	MaxStatusAge time.Duration
	// Obs, when set, registers the selector's cumulative counters
	// (core_selections, core_memo_hits, core_page_hits, the other core_*
	// and the index_* planner metrics); nil detaches them.
	Obs *obs.Registry
}

// Decision records why one server was accepted or rejected — the
// explanations behind a Fig 1.4-style walkthrough.
type Decision struct {
	Host       string
	Qualified  bool
	Preferred  bool
	Denied     bool
	FailedLine int
	Score      float64
	HasScore   bool
	Err        error
}

// Result is a full selection outcome. Results may be shared between
// callers (repeated selections against an unchanged table return a
// memoised Result), so the Servers and Decisions slices must be
// treated as read-only.
type Result struct {
	// Servers are the chosen addresses, best first, capped at the
	// requested count.
	Servers []string
	// Decisions is the per-host account Explain produces: one entry
	// for every fresh server, in snapshot order. Select leaves it nil —
	// the serve path keeps only the n winners.
	Decisions []Decision
	// Shortfall is how many requested servers could not be found.
	Shortfall int
	// StaleDropped counts server records skipped for exceeding
	// Config.MaxStatusAge, before any requirement was evaluated.
	StaleDropped int
	// Pruned counts records the selection planner excluded through
	// index constraints without evaluating them; zero when the planner
	// was not consulted. A selection that stops early (see Select)
	// visits a prefix of the snapshot, and StaleDropped and Pruned
	// count that prefix.
	Pruned int
	// Epoch is the status-snapshot version the selection ran against;
	// two selections with equal epochs saw identical server tables.
	Epoch uint64
}

// Selector evaluates requirements against the status database. It is
// safe for concurrent use: selections read an immutable copy-on-write
// snapshot of the server table and draw their working storage from an
// internal pool.
type Selector struct {
	cfg     Config
	db      *store.DB
	port    string    // Config.ServicePort, "" for none
	scratch sync.Pool // of *scratch
	memo    selMemo
	idx     *index.Set
	aliases atomic.Pointer[hostAliases] // see aliasesFor
	infoMu  sync.RWMutex
	infos   map[*reqlang.Program]*progInfo // see infoFor
	// threshold is DefaultPlanThreshold; tests move it (export_test.go).
	threshold int
	// forceScan makes planned selections filter the snapshot's columns
	// by their extracted constraints instead of querying the index. The
	// Result is identical; differential tests set it (export_test.go)
	// to compare the index path against ground truth.
	forceScan bool

	selections     *obs.Counter // core_selections: Select calls
	memoHits       *obs.Counter // core_memo_hits: served from the epoch memo
	pageHits       *obs.Counter // core_page_hits: pages merged from the page memo
	staleDropped   *obs.Counter // core_stale_dropped: records skipped as stale
	recordEvals    *obs.Counter // core_record_evals: requirement evaluations run
	indexPlans     *obs.Counter // index_plans: selections run under plan semantics
	indexFallbacks *obs.Counter // index_fallbacks: planned selections filtered because the index raced a writer, or forceScan
	indexDeclines  *obs.Counter // index_declines: planned selections filtered because the driver's span is broad
	rowsPruned     *obs.Counter // index_rows_pruned: records excluded without evaluation
	residualEvals  *obs.Counter // index_residual_evals: survivors evaluated on the plan path
}

// scratch is one selection's reusable working storage.
type scratch struct {
	env             reqlang.Env               // the batch: one snapshot page of lanes
	at              [store.SysPageLen]int     // the page offsets a source yields
	lanes           [store.SysPageLen]int     // those not stale: the offsets bound into the batch
	vals            [store.SysPageLen]float64 // a column the page does not hold as is: converted memory, security levels
	bits            index.Bits                // index candidate positions
	ids             index.Bits                // the index's working set, over its host ids
	top             []candidate               // the bounded winner list
	dirty, redo, up []int                     // a page level's evaluated and re-evaluated pages, and the nodes above them
	hostAt, hostPos []int                     // the lists' host positions (resolveHosts)
}

// memoKey identifies one selection question. Programs come from the
// wizard's compiled-requirement cache, so one requirement text maps
// to one pointer and the key needs no string hashing.
type memoKey struct {
	prog *reqlang.Program
	n    int
	opt  proto.Option
}

type memoVal struct {
	res Result
	err error
}

// memoMaxEntries bounds the questions the memo holds; a new question
// past it drops the table whole, as infoFor's cache is dropped.
const memoMaxEntries = 1024

// pageMemoMaxBytes caps all page levels together; a level that does not
// fit starts the table again (DESIGN.md "Wizard fast path": worst cases).
const pageMemoMaxBytes = 32 << 20

// selMemo caches selection outcomes, one entry per question at two
// granularities. A selection that reads neither netdb nor secdb and
// applies no freshness cutoff is a pure function of its key and the
// table: in an epoch the entry's Result answers it, after a write a
// repeat's page level spares the pages the snapshot kept; no page held.
type selMemo struct {
	mu      sync.RWMutex
	entries map[memoKey]*memoEntry
	bytes   int // page levels charged against pageMemoMaxBytes
}

// memoEntry is one question asked before: its newest Result under
// selMemo.mu, and under mu a page level, a winner tree (DESIGN.md). Leaf p
// holds the ID of the page last evaluated at index p, its evaluation
// count and its best n candidates that its bound is not before; node i
// the best n of nodes 2i and 2i+1 and their strongest bound; 1 the reply.
type memoEntry struct {
	memoVal                 // answers res.Epoch
	mu        sync.Mutex    // taken with TryLock: no selection waits for another
	pageEpoch uint64        // the newest epoch that used the page level
	tree      []pageWinners // tree[0] unused, then the nodes, then the leaves
	pages     []pageWinners // the leaves: tree's second half
	top       topN          // the question's n and order; the list of the page being evaluated
}

type pageWinners struct {
	id      uint64 // the page's ID in the page table (SysSnapshot.Page); 0 names no page
	evals   int
	top     []candidate // grown by the page's first qualifiers, then reused
	bound   candidate
	bounded bool // false: top is the page's (the subtree's) best n
}

func (m *selMemo) get(epoch uint64, k memoKey) (memoVal, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if e := m.entries[k]; e != nil && e.res.Epoch == epoch {
		return e.memoVal, true
	}
	return memoVal{}, false
}

// put records an answer unless the entry holds a newer one: a selection
// that finishes late on an older snapshot must not replace it.
func (m *selMemo) put(k memoKey, v memoVal) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[k]
	if e == nil {
		if m.entries == nil || len(m.entries) >= memoMaxEntries {
			m.entries, m.bytes = make(map[memoKey]*memoEntry), 0
		}
		e = &memoEntry{top: topN{n: k.n, ranked: k.opt&proto.OptRankByExpr != 0}}
		m.entries[k] = e
	}
	if e.res.Epoch <= v.res.Epoch {
		e.memoVal = v
	}
}

// pageLevel locks k's page level for snap (a page costs a leaf and a node
// with full lists): nil if k was never answered (asked once, it pays
// nothing), busy, newer or too big alone. One that does not fit drops the rest.
func (m *selMemo) pageLevel(k memoKey, snap *store.SysSnapshot) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[k]
	if e == nil || !e.mu.TryLock() {
		return nil
	}
	pages, per := snap.Pages(), 2*int(unsafe.Sizeof(pageWinners{})+uintptr(k.n)*unsafe.Sizeof(candidate{}))
	if snap.Epoch < e.pageEpoch || pages*per > pageMemoMaxBytes {
		e.mu.Unlock()
		return nil
	}
	if grow := pages - len(e.pages); grow != 0 {
		if m.bytes+grow*per > pageMemoMaxBytes {
			m.entries, m.bytes = map[memoKey]*memoEntry{k: e}, len(e.pages)*per
		}
		m.bytes += grow * per
		e.tree = make([]pageWinners, 2*pages)
		e.pages = e.tree[pages:]
	}
	e.pageEpoch = snap.Epoch
	return e
}

// merge gives node i the best n of its children's lists and their strongest bound.
func (e *memoEntry) merge(i int) {
	w, a, b := &e.tree[i], &e.tree[2*i], &e.tree[2*i+1]
	x, y, ranked := a.top, b.top, e.top.ranked
	w.top = slices.Grow(w.top[:0], e.top.n)
	for len(w.top) < e.top.n && len(x)+len(y) > 0 {
		if len(y) == 0 || len(x) > 0 && x[0].before(&y[0], ranked) {
			w.top, x = append(w.top, x[0]), x[1:]
		} else {
			w.top, y = append(w.top, y[0]), y[1:]
		}
	}
	if w.bound, w.bounded = a.bound, a.bounded; b.bounded && (!a.bounded || b.bound.before(&a.bound, ranked)) {
		w.bound, w.bounded = b.bound, true
	}
}

// remerge merges the nodes above pages ps' leaves (ascending) a level at a
// time, each after its children; leaves sit at two depths, so a node above
// both may merge twice. Every page rebuilds the nodes bottom-up.
func (e *memoEntry) remerge(ps, up []int) []int {
	pages, up := len(e.pages), up[:0]
	for _, p := range ps {
		up = append(up, pages+p)
	}
	for len(up) > 0 {
		k := 0
		for _, i := range up {
			if i /= 2; i > 0 && (k == 0 || up[k-1] != i) {
				up[k], k = i, k+1
			}
		}
		for up = up[:k]; k > 0; k-- {
			e.merge(up[k-1])
		}
	}
	return up
}

// beaten appends to ps the pages under tree index i whose leaf bound is
// before nth, or, with nth nil, that have a bound.
func (e *memoEntry) beaten(i int, nth *candidate, ps []int) []int {
	if w := &e.tree[i]; !w.bounded || nth != nil && !w.bound.before(nth, e.top.ranked) {
		return ps
	} else if i >= len(e.pages) {
		return append(ps, i-len(e.pages))
	}
	return e.beaten(2*i+1, nth, e.beaten(2*i, nth, ps))
}

// nth is list's n-th best, nil while it holds fewer.
func nth(list []candidate, n int) *candidate {
	if len(list) < n {
		return nil
	}
	return &list[n-1]
}

// New builds a selector over the given database.
func New(db *store.DB, cfg Config) (*Selector, error) {
	if db == nil {
		return nil, fmt.Errorf("core: nil database")
	}
	s := &Selector{
		cfg:            cfg,
		db:             db,
		idx:            index.New(db, cfg.Obs),
		threshold:      DefaultPlanThreshold,
		infos:          make(map[*reqlang.Program]*progInfo),
		selections:     cfg.Obs.Counter("core_selections"),
		memoHits:       cfg.Obs.Counter("core_memo_hits"),
		pageHits:       cfg.Obs.Counter("core_page_hits"),
		staleDropped:   cfg.Obs.Counter("core_stale_dropped"),
		recordEvals:    cfg.Obs.Counter("core_record_evals"),
		indexPlans:     cfg.Obs.Counter("index_plans"),
		indexFallbacks: cfg.Obs.Counter("index_fallbacks"),
		indexDeclines:  cfg.Obs.Counter("index_declines"),
		rowsPruned:     cfg.Obs.Counter("index_rows_pruned"),
		residualEvals:  cfg.Obs.Counter("index_residual_evals"),
	}
	s.scratch.New = func() any { return new(scratch) }
	if cfg.ServicePort > 0 {
		s.port = strconv.Itoa(cfg.ServicePort)
	}
	return s, nil
}

// netBinding is a memoised monitor_network_delay/bw lookup for one
// server group, so an n-server selection takes at most one netdb read
// per group instead of one per server.
type netBinding struct {
	delay, bw float64
	ok        bool
}

// Select picks up to n servers satisfying the requirement. Options
// follow proto: OptPartialOK permits a short list, OptRankByExpr
// ranks qualified servers by the requirement's score expression
// (highest first) instead of first-found order.
//
// It costs one evaluation per candidate record on a page the memo does
// not hold, and memory for the n winners. An unranked request whose
// program assigns no user_preferred_host* stops at the n-th qualifier:
// nothing could move a later record ahead of it.
func (s *Selector) Select(prog *reqlang.Program, n int, opt proto.Option) (Result, error) {
	return s.run(prog, n, opt, false)
}

// Explain answers the same question as Select and also accounts for
// every fresh server in Result.Decisions, the data Result.Explain
// renders. It evaluates the whole requirement against the whole table
// (no pruning, early stop or memo), so its memory grows with the
// table: it is for operators and tests, not the serve path.
func (s *Selector) Explain(prog *reqlang.Program, n int, opt proto.Option) (Result, error) {
	return s.run(prog, n, opt, true)
}

// query is one selection's fixed inputs.
type query struct {
	prog    *reqlang.Program
	info    *progInfo
	snap    *store.SysSnapshot
	n       int
	ranked  bool
	explain bool
	cutoff  time.Time // records last reported before it are stale; zero: no cutoff
	netMemo map[string]netBinding
	key     memoKey
	pure    bool // the outcome is a function of key and the snapshot: the memo may hold it
}

func (s *Selector) run(prog *reqlang.Program, n int, opt proto.Option, explain bool) (Result, error) {
	if n <= 0 {
		return Result{}, fmt.Errorf("core: requested %d servers", n)
	}
	if n > proto.MaxServers {
		// The reply must fit one UDP datagram (§3.6.1).
		n = proto.MaxServers
	}

	// One pinned snapshot serves the whole selection: candidate walk,
	// freshness filter and StaleDropped accounting see the same table,
	// so the counts cannot disagree with the records evaluated.
	snap := s.db.PinSys()
	defer snap.Unpin()
	s.selections.Add(1)

	// With no netdb/secdb reads and no freshness cutoff the outcome is
	// a pure function of (program, n, options) for this table epoch:
	// only such outcomes are memoised, so a hit needs no further check.
	key := memoKey{prog: prog, n: n, opt: opt}
	if !explain {
		if v, ok := s.memo.get(snap.Epoch, key); ok {
			s.memoHits.Add(1)
			return v.res, v.err
		}
	}
	q := query{
		prog:    prog,
		info:    s.infoFor(prog),
		snap:    snap,
		n:       n,
		ranked:  opt&proto.OptRankByExpr != 0,
		explain: explain,
		key:     key,
	}
	if s.cfg.MaxStatusAge > 0 {
		q.cutoff = s.db.Now().Add(-s.cfg.MaxStatusAge)
	}
	q.pure = !q.info.all.needNet && q.info.all.sec < 0 && q.cutoff.IsZero() && !explain
	if q.info.all.needNet {
		q.netMemo = make(map[string]netBinding, 4)
	}

	sc := s.scratch.Get().(*scratch)
	defer s.scratch.Put(sc)
	result := s.evaluate(&q, sc)
	result.Epoch = snap.Epoch
	result.Shortfall = n - len(result.Servers)
	var selErr error
	if result.Shortfall > 0 && opt&proto.OptPartialOK == 0 {
		selErr = fmt.Errorf("core: only %d of %d requested servers qualify", len(result.Servers), n)
	}
	if result.StaleDropped > 0 {
		s.staleDropped.Add(uint64(result.StaleDropped))
	}
	if q.pure {
		s.memo.put(key, memoVal{res: result, err: selErr})
	}
	return result, selErr
}

// evaluate is the selection's one loop. Positions come from one of
// three sources — every snapshot position, the index's candidate
// bitset, or the column filter (see source) — and are consumed a
// snapshot page at a time: the page's fresh candidates are bound into
// the batch by column, the program runs over all of them from the
// plan's residual statement on, and the lanes are offered to the
// bounded winner list in position order.
func (s *Selector) evaluate(q *query, sc *scratch) Result {
	snap, size := q.snap, q.snap.Len()
	info := q.info
	var result Result
	if q.explain {
		result.Decisions = make([]Decision, 0, size)
	}

	// Pick the source: the planner only past the threshold (small
	// tables walk faster than they index), never for Explain.
	planned := info.plan != nil && s.threshold > 0 && size >= s.threshold && !q.explain
	vars, from, useIndex := &info.all, 0, false
	if planned {
		s.indexPlans.Add(1)
		vars, from = &info.residual, info.plan.Prefix
		useIndex = s.source(q, sc)
	}

	env := &sc.env
	env.Bind(q.prog, store.SysPageLen)
	top := topN{items: sc.top[:0], n: q.n, ranked: q.ranked}
	// Nothing can overtake the first n qualifiers in snapshot order
	// unless a score ranks or a preferred list reorders them.
	stopEarly := !q.explain && !q.ranked && !q.prog.SetsPreferred()
	// A repeated pure question whose source reads pages whole keeps a page level.
	var memo *memoEntry
	if q.pure && !useIndex && !stopEarly && size > 0 {
		if memo = s.memo.pageLevel(q.key, snap); memo != nil {
			defer memo.mu.Unlock()
		}
	}
	params := q.info.params
	if params > 0 {
		s.resolveHosts(q, sc)
	}
	filterStale, cutoff := !q.cutoff.IsZero(), store.Offset(q.cutoff)
	evals, memoEvals, hits, visited := 0, 0, 0, size
	// visit evaluates page p into out: the lanes it ran, and an early stop.
	visit := func(p int, out *topN) (int, bool) {
		page, _ := snap.Page(p)
		first := p * store.SysPageLen
		at := sc.at[:0] // the page offsets the source yields, ascending
		if useIndex {
			for pos := sc.bits.Next(first); pos >= 0 && pos < first+page.Len(); pos = sc.bits.Next(pos + 1) {
				at = append(at, pos-first)
			}
		} else {
			for i := range page.Len() {
				at = append(at, i)
			}
			if planned {
				at = s.filter(info, sc, page, at)
			}
		}
		lanes, staleBefore := at, result.StaleDropped // lanes: those not stale
		if filterStale {
			lanes = sc.lanes[:0]
			for _, i := range at {
				if page.Before(i, cutoff) {
					result.StaleDropped++
				} else {
					lanes = append(lanes, i)
				}
			}
		}
		if len(lanes) == 0 {
			return 0, false
		}
		s.bind(q, sc, vars, page, lanes)
		q.prog.Run(env, from)
		// A page no list entry names has no lane to test.
		listed := params > 0 && slices.ContainsFunc(sc.hostPos, func(pos int) bool { return pos >= first && pos < first+page.Len() })
		for l, i := range lanes {
			evals++
			qualified, denied, preferred := env.Qualified(l), false, -1
			if listed {
				denied, preferred = sc.listed(env, params, l, first+i)
				qualified = qualified && !denied
			}
			if q.explain {
				res := env.Result(l)
				result.Decisions = append(result.Decisions, Decision{
					Host: page.Host(i), Qualified: qualified, Preferred: preferred >= 0, Denied: denied,
					FailedLine: res.FailedLine, Score: res.Score, HasScore: res.HasScore, Err: res.Err,
				})
			}
			if !qualified {
				continue
			}
			score, hasScore := env.Score(l)
			out.offer(candidate{pos: first + i, preferred: preferred, score: score, hasScore: hasScore})
			if stopEarly && len(top.items) == q.n {
				// The page was evaluated whole; the counts are those of
				// the prefix that ends here: the stale records of at
				// before lane l are its offsets below i not in lanes.
				visited = first + i + 1
				result.StaleDropped = staleBefore + sort.SearchInts(at, i) - l
				return len(lanes), true
			}
		}
		return len(lanes), false
	}
	// refresh evaluates page p into its leaf, bounded by the n-th best of
	// *boundOf, and offers the leaf's list to top.
	var boundOf *[]candidate
	refresh := func(p int) {
		w, out, bound := &memo.pages[p], &memo.top, nth(*boundOf, q.n)
		_, w.id = snap.Page(p)
		w.top, w.bounded, out.items, out.bound = w.top[:0], bound != nil, w.top[:0], nil
		if w.bounded {
			w.bound, out.bound = *bound, &w.bound
		}
		n, _ := visit(p, out)
		w.top, w.evals = out.items, n
		for _, c := range out.items {
			top.offer(c)
		}
	}
	// A built tree spares the pages whose IDs its leaves hold and bounds
	// the others by its reply; a build, or past an eighth of the pages a
	// rebuild, by top, the reply so far, so that no weaker reply finds
	// them bounded too tightly.
	built, dirty := memo != nil && memo.pages[0].id != 0, sc.dirty[:0]
	for p, pages := 0, snap.Pages(); p < pages; p++ {
		if useIndex {
			pos := sc.bits.Next(p * store.SysPageLen)
			if pos < 0 {
				break
			}
			p = pos / store.SysPageLen
		}
		if memo == nil {
			if _, stop := visit(p, &top); stop {
				break
			}
		} else if _, id := snap.Page(p); built && memo.pages[p].id == id {
			memoEvals += memo.pages[p].evals
			hits++
		} else {
			if boundOf = &memo.tree[1].top; !built || len(dirty) > pages/8 {
				boundOf = &top.items
			}
			refresh(p)
			dirty = append(dirty, p)
		}
	}
	sc.top, sc.dirty = top.items[:0], dirty
	if memo != nil {
		// The root is the reply unless a leaf's bound is before its n-th
		// best (has one, short of n). Those leaves are evaluated once more,
		// bounded by that n-th (short of it, by top, their lists so far).
		sc.up = memo.remerge(dirty, sc.up)
		if root, last := &memo.tree[1], nth(memo.tree[1].top, q.n); root.bounded && (last == nil || root.bound.before(last, q.ranked)) {
			sc.redo = memo.beaten(1, last, sc.redo[:0])
			slices.Sort(sc.redo) // offers to top come in page order
			if top.items, boundOf = top.items[:0], &root.top; last == nil {
				boundOf = &top.items
			}
			for _, p := range sc.redo {
				if _, ok := slices.BinarySearch(dirty, p); ok {
					evals -= memo.pages[p].evals // no record counts twice
				} else {
					memoEvals, hits = memoEvals-memo.pages[p].evals, hits-1
				}
				refresh(p)
			}
			sc.up = memo.remerge(sc.redo, sc.up)
		}
		top.items = memo.tree[1].top
	}

	// Every visited record was pruned, dropped as stale or evaluated,
	// here or by the selection that memoised its page.
	s.recordEvals.Add(uint64(evals))
	s.pageHits.Add(uint64(hits))
	if planned {
		result.Pruned = visited - evals - memoEvals - result.StaleDropped
		s.rowsPruned.Add(uint64(result.Pruned))
		s.residualEvals.Add(uint64(evals))
	}
	// Only the winners become dialable addresses.
	if len(top.items) > 0 {
		result.Servers = make([]string, len(top.items))
		for i, c := range top.items {
			result.Servers[i] = s.dialAddr(snap.Host(c.pos))
		}
	}
	return result
}

// candidate is one qualified server competing for the reply.
type candidate struct {
	pos       int // snapshot position, the first-found tiebreak
	preferred int // slot-order index of the first preferred parameter naming it, -1 if none
	score     float64
	hasScore  bool
}

// ranks reports whether the candidate has a score to rank by. A NaN
// score (pow(-1, 0.5), exp(1000) - exp(1000)) orders against nothing,
// so it is no score: this is the one place that says so.
func (c *candidate) ranks() bool { return c.hasScore && c.score == c.score }

// before is the reply order, a strict total order over candidates.
// Preferred servers "will always be selected first when available"
// (§3.6.1), in the order the user listed them; then, when ranking by
// expression, scored servers by descending score ahead of unscored
// ones; then snapshot order.
func (c *candidate) before(d *candidate, ranked bool) bool {
	if cp, dp := uint(c.preferred), uint(d.preferred); cp != dp { // -1, no slot, is the largest
		return cp < dp
	}
	if ranked {
		cRanks, dRanks := c.ranks(), d.ranks()
		if cRanks != dRanks {
			return cRanks
		}
		if cRanks && c.score != d.score {
			return c.score > d.score
		}
	}
	return c.pos < d.pos
}

// topN keeps the best n candidates offered so far, best first: the
// reply is capped at proto.MaxServers, so insertion into a short
// sorted array replaces sorting every qualifier.
type topN struct {
	items  []candidate
	n      int
	ranked bool
	bound  *candidate // when set, no candidate it is before gets in (exactly: it may sit on a later page)
}

func (t *topN) offer(c candidate) {
	i := len(t.items)
	if i == t.n {
		if last := &t.items[i-1]; t.tieLost(&c, last) || !c.before(last, t.ranked) {
			return
		}
		i--
	} else if t.bound != nil && (t.bound.pos < c.pos && t.tieLost(&c, t.bound) || t.bound.before(&c, t.ranked)) {
		return
	} else {
		t.items = append(t.items, c)
	}
	for ; i > 0 && c.before(&t.items[i-1], t.ranked); i-- {
		t.items[i] = t.items[i-1]
	}
	t.items[i] = c
}

// tieLost is the one comparison most offers of a broad request get:
// offers come in position order, so against a full list's last entry,
// or a bound at a lower position, a tie is lost.
func (t *topN) tieLost(c, last *candidate) bool {
	return c.preferred < 0 && (!t.ranked || last.preferred >= 0 || last.ranks() && !(c.hasScore && c.score > last.score))
}

// bind fills the batch with one page's candidates, a column per
// variable the statements to run touch: the status variables gathered
// from the page's columns, plus each server's group's network metrics
// and its security level when those statements ask for them.
func (s *Selector) bind(q *query, sc *scratch, vars *slotVars, page *store.SysPage, lanes []int) {
	env := &sc.env
	env.Reset(len(lanes))
	for _, v := range vars.status {
		col, dst := page.Column(v.id, &sc.vals), env.Col(v.slot)
		for l, i := range lanes {
			dst[l] = col[i]
		}
	}
	if vars.needNet {
		var delay, bw []float64
		if vars.delay >= 0 {
			delay = env.Col(vars.delay)
		}
		if vars.bw >= 0 {
			bw = env.Col(vars.bw)
		}
		for l, i := range lanes {
			// The server's own group: the thesis assumes LAN metrics are
			// always sufficient (§3.3.3), so zero delay and a very large
			// bandwidth (Mbps; effectively infinite) never reject local
			// servers. Another group: the measured metrics — or, with no
			// record, nothing: the variables stay undefined and requirements
			// referencing them reject the server, the safe default.
			b := netBinding{bw: 1e5, ok: true}
			if group := s.cfg.GroupOf(page.Host(i)); group != s.cfg.LocalMonitor {
				b = s.netBinding(q, group)
			}
			if delay != nil {
				if delay[l] = b.delay; !b.ok {
					env.Undef(vars.delay, l)
				}
			}
			if bw != nil {
				if bw[l] = b.bw; !b.ok {
					env.Undef(vars.bw, l)
				}
			}
		}
	}
	if vars.sec >= 0 {
		col, dst := s.secColumn(page, lanes, &sc.vals), env.Col(vars.sec)
		for l, i := range lanes {
			if dst[l] = col[i]; dst[l] != dst[l] {
				env.Undef(vars.sec, l)
			}
		}
	}
}

// secColumn is the page's column of security levels, read at the
// offsets in at only: NaN for a host secdb has no record of, which
// fails every comparison as the undefined variable fails its statement.
func (s *Selector) secColumn(page *store.SysPage, at []int, buf *[store.SysPageLen]float64) []float64 {
	for _, i := range at {
		buf[i] = math.NaN()
		if sec, ok := s.db.GetSec(page.Host(i)); ok {
			buf[i] = float64(sec.Level.Level)
		}
	}
	return buf[:page.Len()]
}

// netBinding reads the metrics from the local monitor to a group, once
// per selection.
func (s *Selector) netBinding(q *query, group string) netBinding {
	if group == "" {
		return netBinding{}
	}
	b, seen := q.netMemo[group]
	if !seen {
		if nr, ok := s.db.GetNet(s.cfg.LocalMonitor, group); ok {
			// Delay in milliseconds, bandwidth in Mbps: the units the
			// thesis requirements use ("delay < 20",
			// "monitor_network_bw > 6").
			b = netBinding{
				delay: float64(nr.Metric.Delay.Milliseconds()),
				bw:    nr.Metric.Bandwidth / 1e6,
				ok:    true,
			}
		}
		q.netMemo[group] = b
	}
	return b
}
