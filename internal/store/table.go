package store

import (
	"slices"
	"time"

	"smartsock/internal/status"
)

// Stamp is the versioning every record carries beside its status value.
type Stamp struct {
	// UpdatedAt is the arrival time of the record's last report.
	UpdatedAt time.Time
	// Ver is the database version of the record's last content
	// change; RefVer of its last report (a refresh re-stamps RefVer
	// and UpdatedAt without touching Ver).
	Ver, RefVer uint64
}

// maxTombstones bounds a table's tombstone map. When a table exceeds
// it the tombstones are dropped wholesale and the deletion floor
// advances, forcing mirrors behind the floor onto a full resync; a
// sequence of 4096 expiries without one intervening resync is already
// a pathological fleet.
const maxTombstones = 4096

// ChangeLogCap bounds a table's changelog ring. changedSince serves a
// delta by walking only the ring entries newer than the caller's base
// instead of scanning every record, so its cost tracks the change
// rate, not the fleet size; a caller whose base has been evicted from
// the ring falls back to the historical full scan.
const ChangeLogCap = 4096

// logEntry records one version-stamping mutation of one key. The key
// aliases the record's (or the tombstone's) own strings, so appending
// an entry never allocates on the steady-state refresh path.
type logEntry[K any] struct {
	ver uint64
	key K
}

// table is the one versioned key→record table the three status
// databases are instances of. K names a record, V is the status value
// a report carries and R the record stored for it: V beside a Stamp. A
// table differs from another only in those types and the three
// functions that read them; everything that makes it versioned — the
// stamps, the tombstones, the changelog ring, the classification of
// what moved since a base — is written here once. Every method expects
// db.mu held, for writing unless it says otherwise.
type table[K, V comparable, R any] struct {
	// db holds what the tables share: the version counter every
	// mutation advances, the deletion floor, the lock.
	db *DB
	// keyOf reads the key a value is stored under, split a record's two
	// halves, and cmp is the order lists and deltas come out in.
	keyOf func(*V) K
	split func(*R) (*V, *Stamp)
	cmp   func(a, b K) int

	live map[K]*R
	// tomb maps deleted keys to the version of the deletion, so
	// expiries propagate through deltas.
	tomb map[K]uint64
	// log is the changelog ring (see ChangeLogCap), allocated on first
	// use; logStart indexes its oldest entry and logLen counts the live
	// ones. logFloor is the version of the newest evicted entry: bases
	// at or above it can be served from the ring alone.
	log              []logEntry[K]
	logStart, logLen int
	logFloor         uint64
	// keys is the candidate list of changedSince, reused across calls so
	// a per-tick delta allocates nothing once capacities settle.
	keys []K
}

func newTable[K, V comparable, R any](db *DB, keyOf func(*V) K, split func(*R) (*V, *Stamp), cmp func(a, b K) int) table[K, V, R] {
	return table[K, V, R]{db: db, keyOf: keyOf, split: split, cmp: cmp, live: make(map[K]*R), tomb: make(map[K]uint64)}
}

// logAppend records a mutation of k at the current version in the
// ring, evicting the oldest entry (and raising logFloor) when the ring
// is full. The caller has already advanced db.ver for the mutation.
func (t *table[K, V, R]) logAppend(k K) {
	if t.log == nil {
		t.log = make([]logEntry[K], ChangeLogCap)
	}
	e := logEntry[K]{ver: t.db.ver, key: k}
	if t.logLen == ChangeLogCap {
		// Evict the oldest entry: a base below its version can no
		// longer prove it has seen everything, so the floor rises.
		t.logFloor = t.log[t.logStart].ver
		t.log[t.logStart] = e
		t.logStart = (t.logStart + 1) % ChangeLogCap
		return
	}
	t.log[(t.logStart+t.logLen)%ChangeLogCap] = e
	t.logLen++
}

// get copies out the record stored under k. The read lock suffices.
func (t *table[K, V, R]) get(k K) (rec R, ok bool) {
	if r, ok := t.live[k]; ok {
		return *r, true
	}
	return rec, false
}

// upsert is the one write (§3.2.2: existing addresses are updated in
// place, new ones inserted). A same-content report refreshes the
// record — timestamp and RefVer only; a changed one overwrites it where
// it stands, because readers only ever copy records out under the
// lock: a fleet reporting new values allocates nothing per report.
// Reports whether content changed.
func (t *table[K, V, R]) upsert(k K, v *V, now time.Time) bool {
	r, known := t.live[k]
	if known {
		if val, _ := t.split(r); *val == *v {
			t.refresh(r, now)
			return false
		}
	} else {
		r = new(R)
		t.live[k] = r
		delete(t.tomb, k)
	}
	t.db.ver++
	val, st := t.split(r)
	*val, *st = *v, Stamp{UpdatedAt: now, Ver: t.db.ver, RefVer: t.db.ver}
	t.logAppend(k)
	return true
}

// refresh re-stamps a live record whose content was reported again
// unchanged.
func (t *table[K, V, R]) refresh(r *R, now time.Time) {
	val, st := t.split(r)
	t.db.ver++
	st.UpdatedAt, st.RefVer = now, t.db.ver
	t.logAppend(t.keyOf(val))
}

// bury removes the named live records at one new version, leaving a
// tombstone and a ring entry apiece so mirrors — and incremental
// consumers of a mirror, like the wizard's selection index — learn of
// the deletion through changedSince. A table past maxTombstones drops
// them wholesale and raises the deletion floor, pushing any mirror with
// an older base onto a full resync.
func (t *table[K, V, R]) bury(keys []K) {
	if len(keys) == 0 {
		return
	}
	t.db.ver++
	for _, k := range keys {
		delete(t.live, k)
		t.tomb[k] = t.db.ver
		t.logAppend(k)
	}
	if len(t.tomb) > maxTombstones {
		t.tomb = make(map[K]uint64)
		t.db.tombFloor = t.db.ver
	}
}

// expire buries every record last reported before cutoff and returns
// their keys, in no order.
func (t *table[K, V, R]) expire(cutoff time.Time) (gone []K) {
	for k, r := range t.live {
		if _, st := t.split(r); st.UpdatedAt.Before(cutoff) {
			gone = append(gone, k)
		}
	}
	t.bury(gone)
	return gone
}

// applyDelta merges one decoded delta into t: changed records are
// upserted, deleted keys buried, refreshed keys re-stamped in place. A
// received batch is the delta with no key lists. The keys are views
// that may alias a frame buffer; find looks one up in the live map
// without copying it, and nothing retains it. moved reports whether
// content or membership changed, touched whether anything else was
// re-stamped.
func applyDelta[K, V comparable, R, KV any](t *table[K, V, R], now time.Time, changed []V, deleted, refreshed []KV, find func(map[K]*R, KV) *R) (moved, touched bool) {
	for i := range changed {
		if t.upsert(t.keyOf(&changed[i]), &changed[i], now) {
			moved = true
		} else {
			touched = true
		}
	}
	var gone []K
	for _, kv := range deleted {
		if r := find(t.live, kv); r != nil {
			val, _ := t.split(r)
			gone = append(gone, t.keyOf(val))
		}
	}
	t.bury(gone)
	for _, kv := range refreshed {
		if r := find(t.live, kv); r != nil {
			t.refresh(r, now)
			touched = true
		}
	}
	return moved || len(gone) > 0, touched
}

// byHost and byPair are the lookups applyDelta is given. The
// conversion sits inside the index expression, where the compiler does
// not allocate for it.
func byHost[R any](m map[string]*R, host []byte) *R { return m[string(host)] }

func byPair(m map[status.NetKey]*NetRecord, k status.NetKeyView) *NetRecord {
	return m[status.NetKey{From: string(k.From), To: string(k.To)}]
}

// load replaces the table with the received batch. Its tombstones and
// its per-record history are gone, so the deletion floor and the ring
// restart at this version: deltas can only resume from here onward.
func (t *table[K, V, R]) load(vs []V, now time.Time) {
	t.db.ver++
	t.live = make(map[K]*R, len(vs))
	for i := range vs {
		r := new(R)
		val, st := t.split(r)
		*val, *st = vs[i], Stamp{UpdatedAt: now, Ver: t.db.ver, RefVer: t.db.ver}
		t.live[t.keyOf(val)] = r
	}
	t.tomb = make(map[K]uint64)
	t.db.tombFloor = t.db.ver
	t.logStart, t.logLen, t.logFloor = 0, 0, t.db.ver
}

// ordered sorts keys and drops repeats.
func (t *table[K, V, R]) ordered(keys []K) []K {
	slices.SortFunc(keys, t.cmp)
	return slices.Compact(keys)
}

// ringKeys appends the key of every ring entry stamped after base to
// keys and returns them ordered: the keys the ring proves were written
// since. The caller has checked base >= logFloor. The read lock
// suffices.
func (t *table[K, V, R]) ringKeys(base uint64, keys []K) []K {
	// Ring entries are in version order: walk back from the newest.
	for i := t.logLen - 1; i >= 0; i-- {
		e := &t.log[(t.logStart+i)%ChangeLogCap]
		if e.ver <= base {
			break
		}
		keys = append(keys, e.key)
	}
	return t.ordered(keys)
}

// scanKeys is ringKeys for a base the ring no longer reaches: the
// historical walk over every record and tombstone.
func (t *table[K, V, R]) scanKeys(base uint64, keys []K) []K {
	for k, r := range t.live {
		if _, st := t.split(r); st.RefVer > base {
			keys = append(keys, k)
		}
	}
	for k, ver := range t.tomb {
		if ver > base {
			keys = append(keys, k)
		}
	}
	return t.ordered(keys)
}

// classify files each key under what happened to it after base: the
// live record decides changed-vs-refreshed, a tombstone above base
// decides deleted. The keys are ordered, so each list comes out sorted.
func (t *table[K, V, R]) classify(base uint64, keys []K, d *status.Delta[V, K]) {
	for _, k := range keys {
		if r, live := t.live[k]; live {
			if val, st := t.split(r); st.Ver > base {
				d.Changed = append(d.Changed, *val)
			} else if st.RefVer > base {
				d.Refreshed = append(d.Refreshed, k)
			}
		} else if t.tomb[k] > base {
			d.Deleted = append(d.Deleted, k)
		}
	}
}

// changedSince fills d with every mutation of t stamped after base —
// changed records, tombstones, and same-content refreshes — from the
// ring when it still covers base, else from the scan. d's slices are
// reset and reused.
func (t *table[K, V, R]) changedSince(base uint64, d *status.Delta[V, K]) {
	d.Reset(base, t.db.ver)
	if base >= t.logFloor {
		t.keys = t.ringKeys(base, t.keys[:0])
	} else {
		t.keys = t.scanKeys(base, t.keys[:0])
	}
	t.classify(base, t.keys, d)
}

// sortedKeys lists every live key in order. The read lock suffices,
// as it does for records and values.
func (t *table[K, V, R]) sortedKeys() []K {
	keys := make([]K, 0, len(t.live))
	for k := range t.live {
		keys = append(keys, k)
	}
	return t.ordered(keys)
}

// records copies every live record out in key order.
func (t *table[K, V, R]) records() []R {
	keys := t.sortedKeys()
	out := make([]R, len(keys))
	for i, k := range keys {
		out[i] = *t.live[k]
	}
	return out
}

// values copies every live record's status value out in key order: the
// batch a transmitter ships.
func (t *table[K, V, R]) values() []V {
	keys := t.sortedKeys()
	out := make([]V, len(keys))
	for i, k := range keys {
		val, _ := t.split(t.live[k])
		out[i] = *val
	}
	return out
}
