package index

import (
	"math/bits"
	"slices"
	"sync"
	"time"

	"smartsock/internal/obs"
	"smartsock/internal/reqlang"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// SecurityField is the one indexable variable that lives outside the
// sys table: the host's security level from secdb.
const SecurityField = "host_security_level"

// Set is the collection of per-field indexes over one status
// database. It trails the database through ChangedSince deltas keyed
// by the (version, epoch) pair — tombstones clear liveness bits,
// same-content refreshes re-stamp nothing, and a base that falls
// behind retained history triggers a full Resync rebuild, exactly
// mirroring the transport's snapshot-gap handling. The serve path
// never rebuilds: it applies the delta since the last selection and
// answers range queries from the sorted columns.
type Set struct {
	db *store.DB

	mu     sync.RWMutex
	synced bool
	ver    uint64 // database version the indexes reflect
	epoch  uint64 // sys-table epoch at that version

	// hosts assigns each host name a small dense id, stable for the
	// life of the Set (a Resync renumbers). live marks ids currently
	// present in the sys table; cols holds one ordered column per
	// indexed field, created on first use.
	hosts []string
	idOf  map[string]int
	live  Bits
	cols  map[string]*column
	// pos maps a live id to its host's position in the sorted snapshot
	// of the current epoch. Positions move only when membership does,
	// so a content change leaves the table standing; posOK is cleared
	// by a join, a departure or a resync, and SyncFor rebuilds the
	// table from the caller's snapshot.
	pos   []int32
	posOK bool

	// Reusable delta scratch for the sync path; no net: none is indexed.
	sysD status.SysDelta
	secD status.SecDelta

	applyLatency *obs.Histogram // index_apply_delta: per-sync delta apply time
	resyncs      *obs.Counter   // index_resyncs: full rebuilds
}

// New builds an empty index set over db. reg may be nil.
func New(db *store.DB, reg *obs.Registry) *Set {
	return &Set{
		db:           db,
		idOf:         make(map[string]int),
		cols:         make(map[string]*column),
		applyLatency: reg.Histogram("index_apply_delta", obs.LatencyBuckets),
		resyncs:      reg.Counter("index_resyncs"),
	}
}

// SyncFor brings the indexes up to the database's current state and
// makes sure a column exists for every field, so a query against
// snap's epoch can be answered. It reports false when the snapshot is
// already behind the database (a writer raced the caller): the caller
// must fall back to scanning its snapshot, and the next request's
// fresher snapshot will match again.
func (s *Set) SyncFor(snap *store.SysSnapshot, fields []string) bool {
	// The fast path must compare the database *version*, not just the
	// sys epoch: security-level changes advance ver while leaving the
	// sys epoch alone, and the security column must still see them.
	s.mu.RLock()
	if s.synced && s.posOK && s.epoch == snap.Epoch && s.ver == s.db.Ver() && s.hasColumns(fields) {
		s.mu.RUnlock()
		return true
	}
	s.mu.RUnlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.synced {
		start := time.Now()
		ver, epoch, ok := s.db.ChangedSinceAt(s.ver, &s.sysD, nil, &s.secD)
		if ok {
			s.applyDeltasLocked()
			s.ver, s.epoch = ver, epoch
			s.applyLatency.Observe(int64(time.Since(start)))
		} else {
			// Retained history no longer covers our base (tombstone
			// prune, source restart, whole-table Load): rebuild.
			s.synced = false
		}
	}
	if !s.synced {
		s.resyncLocked()
	}
	if s.epoch != snap.Epoch {
		// The epoch is monotonic and we just synced to the database's
		// head, so a mismatch means the caller's snapshot is stale.
		return false
	}
	s.ensureColumnsLocked(fields, snap)
	if !s.posOK {
		// Entries of ids no longer live go stale; no candidate set holds them.
		s.pos = slices.Grow(s.pos[:0], len(s.hosts))[:len(s.hosts)]
		for i := range snap.Len() {
			s.pos[s.idOf[snap.Host(i)]] = int32(i)
		}
		s.posOK = true
	}
	return true
}

// DeclineSpan is the planner's "no": a driver span holding at least
// 1/DeclineSpan of its column is broad, and filtering the snapshot's
// columns costs less than collecting it (sweep: DESIGN.md "Selection
// planner").
const DeclineSpan = 4

// Broad reports whether the constraint Positions would drive from spans
// a broad share of its sorted column, as last synced: it syncs for snap
// only to create a missing column, so a declined selection pays no upkeep.
// It reads the span, not the estimate: that counts the whole patch, so
// it calls a selective constraint broad just before a compaction. A
// security-level constraint, of which the snapshot has no column, keeps
// the index.
func (s *Set) Broad(snap *store.SysSnapshot, fields []string, cons []reqlang.Constraint) bool {
	s.mu.RLock()
	ready := s.hasColumns(fields)
	s.mu.RUnlock()
	if !ready && !s.SyncFor(snap, fields) {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := s.driverLocked(cons)
	if d < 0 || slices.ContainsFunc(cons, func(c reqlang.Constraint) bool { return c.Var == SecurityField }) {
		return false
	}
	col := s.cols[cons[d].Var]
	lo, hi := col.span(cons[d])
	return hi > lo && (hi-lo)*DeclineSpan >= len(col.base)
}

// driverLocked picks the constraint with the smallest estimate; -1 when
// there is none or one has no column.
func (s *Set) driverLocked(cons []reqlang.Constraint) int {
	driver, best := -1, 0
	for i, c := range cons {
		col := s.cols[c.Var]
		if col == nil {
			return -1
		}
		if est := col.estimate(c); driver < 0 || est < best {
			driver, best = i, est
		}
	}
	return driver
}

// Positions sets in dst (reset and grown to fit) the bit of every
// position in the epoch's sorted snapshot whose host satisfies every
// constraint, provided the indexes still match the queried epoch; ids
// is the caller's scratch for the candidate set over host ids, handed
// back like dst so a pooled caller allocates neither.
// Candidate generation walks the sorted range of the most selective
// constraint, filters the survivors against the remaining
// constraints' dense arrays in O(1) each, and joins them to snapshot
// positions through the id→position table — no host name is
// materialised or searched for.
func (s *Set) Positions(epoch uint64, cons []reqlang.Constraint, dst, ids Bits) (Bits, Bits, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.synced || !s.posOK || s.epoch != epoch {
		return dst, ids, false
	}
	driver := s.driverLocked(cons)
	if driver < 0 {
		return dst, ids, false
	}
	cand := ids[:0].grow(len(s.hosts))
	s.cols[cons[driver].Var].collect(cons[driver], cand, s.live)
	for i, c := range cons {
		if i == driver {
			continue
		}
		col := s.cols[c.Var]
		for w, word := range cand {
			for word != 0 {
				id := w<<6 + bits.TrailingZeros64(word)
				if !col.test(id, c) {
					cand.Clear(id)
				}
				word &= word - 1
			}
		}
	}
	// Snapshot positions never outnumber the ids ever assigned.
	dst = dst[:0].grow(len(s.hosts))
	cand.ForEach(func(id int) { dst.Set(int(s.pos[id])) })
	return dst, cand, true
}

func (s *Set) hasColumns(fields []string) bool {
	for _, f := range fields {
		if s.cols[f] == nil {
			return false
		}
	}
	return true
}

// ensureID returns the host's dense id, assigning the next one (and
// growing the bitsets and columns) for a host never seen before. Ids
// are never recycled while the Set lives: a host that expires and
// returns keeps its id, so no stale sorted entry can alias a
// different host.
func (s *Set) ensureIDLocked(host string) int {
	if id, ok := s.idOf[host]; ok {
		return id
	}
	id := len(s.hosts)
	s.hosts = append(s.hosts, host)
	s.idOf[host] = id
	s.live = s.live.grow(id + 1)
	for _, col := range s.cols {
		col.ensure(id + 1)
	}
	return id
}

// applyDeltasLocked folds one ChangedSince answer into the indexes.
func (s *Set) applyDeltasLocked() {
	for i := range s.sysD.Changed {
		st := &s.sysD.Changed[i]
		id := s.ensureIDLocked(st.Host)
		if !s.live.Test(id) {
			s.live.Set(id)
			s.posOK = false
		}
		for field, col := range s.cols {
			if field == SecurityField {
				continue
			}
			if v, ok := st.Var(field); ok {
				col.set(id, v)
			} else {
				col.unset(id)
			}
		}
	}
	for _, host := range s.sysD.Deleted {
		if id, ok := s.idOf[host]; ok && s.live.Test(id) {
			s.live.Clear(id)
			s.posOK = false
		}
	}
	// Refreshes re-stamp timestamps only; values, and therefore every
	// column, are unchanged. Net deltas carry no indexed fields.
	if col := s.cols[SecurityField]; col != nil {
		for i := range s.secD.Changed {
			l := &s.secD.Changed[i]
			col.set(s.ensureIDLocked(l.Host), float64(l.Level))
		}
		for _, host := range s.secD.Deleted {
			if id, ok := s.idOf[host]; ok {
				col.unset(id)
			}
		}
	}
}

// resyncLocked rebuilds everything from a consistent full view,
// renumbering the id space. Existing columns are repopulated in the
// same pass so queries resume immediately.
func (s *Set) resyncLocked() {
	snap, sec, ver, epoch := s.db.ResyncView()
	s.resyncs.Add(1)
	s.hosts = s.hosts[:0]
	clear(s.idOf)
	s.live = s.live[:0]
	for field, col := range s.cols {
		*col = column{}
		if field == SecurityField {
			s.fillSecColumnLocked(col, sec)
		} else {
			s.fillSysColumnLocked(field, col, snap)
		}
	}
	// Host ids for snapshot members not already assigned by column
	// fills (no columns yet, or fields the records don't define).
	for i := range snap.Len() {
		id := s.ensureIDLocked(snap.Host(i))
		s.live = s.live.grow(id + 1)
		s.live.Set(id)
	}
	s.ver, s.epoch, s.synced, s.posOK = ver, epoch, true, false
}

// ensureColumnsLocked creates any missing columns. Sys-table columns
// fill from the caller's epoch-matched snapshot; the security column
// fills from the live sec table, which the delta stream keeps
// convergent with our version.
func (s *Set) ensureColumnsLocked(fields []string, snap *store.SysSnapshot) {
	for _, f := range fields {
		if s.cols[f] != nil {
			continue
		}
		col := &column{}
		if f == SecurityField {
			s.fillSecColumnLocked(col, s.db.Sec())
		} else {
			s.fillSysColumnLocked(f, col, snap)
		}
		s.cols[f] = col
	}
}

// fillSysColumnLocked fills a fresh column from the snapshot's own; a
// field no record defines leaves it empty.
func (s *Set) fillSysColumnLocked(field string, col *column, snap *store.SysSnapshot) {
	col.ensure(len(s.hosts))
	vi := status.VarIndex(field)
	var buf [store.SysPageLen]float64
	for p := 0; vi >= 0 && p < snap.Pages(); p++ {
		page, _ := snap.Page(p)
		for j, v := range page.Column(vi, &buf) {
			id := s.ensureIDLocked(page.Host(j))
			col.ensure(id + 1)
			col.define(id, v)
		}
	}
	col.compact()
}

func (s *Set) fillSecColumnLocked(col *column, sec []store.SecRecord) {
	col.ensure(len(s.hosts))
	for i := range sec {
		rec := &sec[i]
		id := s.ensureIDLocked(rec.Level.Host)
		col.ensure(id + 1)
		col.define(id, float64(rec.Level.Level))
	}
	col.compact()
}
