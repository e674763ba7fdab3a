package index

import (
	"math/bits"
	"slices"
	"sync"
	"time"

	"smartsock/internal/obs"
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

	// Reusable delta scratch for the sync path.
	sysD status.SysDelta
	netD status.NetDelta
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
		ver, epoch, ok := s.db.ChangedSinceAt(s.ver, &s.sysD, &s.netD, &s.secD)
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
		snap.Each(func(i int, rec *store.SysRecord) { s.pos[s.idOf[rec.Status.Host]] = int32(i) })
		s.posOK = true
	}
	return true
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
func (s *Set) Positions(epoch uint64, cons []Constraint, dst, ids Bits) (Bits, Bits, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.synced || !s.posOK || s.epoch != epoch || len(cons) == 0 {
		return dst, ids, false
	}
	driver := -1
	best := 0
	for i, c := range cons {
		col := s.cols[c.Field]
		if col == nil {
			return dst, ids, false
		}
		if est := col.estimate(c); driver < 0 || est < best {
			driver, best = i, est
		}
	}
	cand := ids[:0].grow(len(s.hosts))
	s.cols[cons[driver].Field].collect(cons[driver], cand, s.live)
	for i, c := range cons {
		if i == driver {
			continue
		}
		col := s.cols[c.Field]
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

// Ver returns the (version, epoch) pair the indexes reflect.
func (s *Set) Ver() (ver, epoch uint64, synced bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ver, s.epoch, s.synced
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
	snap.Each(func(_ int, rec *store.SysRecord) {
		id := s.ensureIDLocked(rec.Status.Host)
		s.live = s.live.grow(id + 1)
		s.live.Set(id)
	})
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

func (s *Set) fillSysColumnLocked(field string, col *column, snap *store.SysSnapshot) {
	col.ensure(len(s.hosts))
	vi := status.VarIndex(field)
	snap.Each(func(_ int, rec *store.SysRecord) {
		id := s.ensureIDLocked(rec.Status.Host)
		col.ensure(id + 1)
		if vi >= 0 {
			col.set(id, rec.Status.VarAt(vi))
		} else {
			col.unset(id)
		}
	})
	col.compact()
}

func (s *Set) fillSecColumnLocked(col *column, sec []store.SecRecord) {
	col.ensure(len(s.hosts))
	for i := range sec {
		rec := &sec[i]
		id := s.ensureIDLocked(rec.Level.Host)
		col.ensure(id + 1)
		col.set(id, float64(rec.Level.Level))
	}
	col.compact()
}
