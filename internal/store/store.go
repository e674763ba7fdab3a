// Package store holds the three status databases — sysdb, netdb and
// secdb (Fig 3.10) — that monitors write and the transmitter, receiver
// and wizard read. In the thesis these live in System V shared memory
// guarded by semaphores (Table 4.3); here the components are
// goroutines sharing one process, so a mutex-guarded map provides the
// same concurrent read/update semantics.
//
// Every record carries the timestamp of its last update. The system
// monitor expires records whose probe has missed several report
// intervals (§3.2.2), which is how servers leave the pool and how
// failures are detected.
//
// For the delta transport the database additionally keeps a single
// monotonically increasing version counter. Every mutation — a
// content change, a same-content refresh, an expiry — advances it and
// stamps the affected record (or its tombstone), so ChangedSince can
// answer "what moved after version V" and the transmitter ships only
// that instead of re-marshalling the whole database each tick.
package store

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"smartsock/internal/status"
)

// Clock abstracts time so tests can drive expiry deterministically.
type Clock func() time.Time

// SysRecord is a server status report plus its arrival time.
type SysRecord struct {
	Status    status.ServerStatus
	UpdatedAt time.Time
	// Ver is the database version of the record's last content
	// change; RefVer of its last report (a refresh re-stamps RefVer
	// and UpdatedAt without touching Ver).
	Ver, RefVer uint64
}

// NetRecord is a network metric plus its measurement time.
type NetRecord struct {
	Metric      status.NetMetric
	UpdatedAt   time.Time
	Ver, RefVer uint64
}

// SecRecord is a security level plus its report time.
type SecRecord struct {
	Level       status.SecLevel
	UpdatedAt   time.Time
	Ver, RefVer uint64
}

// SysSnapshot is an immutable, epoch-versioned view of the server
// status table. Writers publish a new snapshot when the table
// mutates; readers grab the current one with a single atomic load, so
// the selection hot path evaluates candidates without copying the
// table or holding any lock. Records are sorted by host and held in
// fixed-size pages that successive snapshots share: a page is never
// written once a snapshot holding it is published, and callers must
// treat what At and Each hand out as read-only.
type SysSnapshot struct {
	// Epoch increments on every content mutation of the sys table:
	// two snapshots with the same epoch hold the same hosts with the
	// same status values. A same-content refresh re-stamps UpdatedAt
	// without advancing the epoch, so selection memoized against an
	// epoch stays valid across idle probe ticks.
	Epoch uint64
	// pages holds the n records in host order, SysPageLen to a page
	// (the last may be short).
	pages [][]SysRecord
	n     int
	// ver is the database version the snapshot reflects: the changelog
	// entries above it name the hosts a successor must re-read.
	ver uint64
}

// SysPageLen is the records per snapshot page: as many as fit the
// 16 KB allocation class, so a page wastes under one record of it. A
// rebuild after a report copies one such page plus the page table
// (24 bytes a page); the sweep in DESIGN.md ("Wizard fast path") puts
// the minimum of the two between 8 and 32 KB from 20k to 100k hosts.
const SysPageLen = 16 << 10 / int(unsafe.Sizeof(SysRecord{}))

// Len reports the number of records in the snapshot.
func (s *SysSnapshot) Len() int { return s.n }

// At returns the i-th record in host order, 0 <= i < Len().
func (s *SysSnapshot) At(i int) *SysRecord { return &s.pages[i/SysPageLen][i%SysPageLen] }

// PageOf returns the page holding position i and its first record's position.
func (s *SysSnapshot) PageOf(i int) ([]SysRecord, int) {
	return s.pages[i/SysPageLen], i - i%SysPageLen
}

// Each calls fn on every record in host order: the full-table walk.
func (s *SysSnapshot) Each(fn func(i int, r *SysRecord)) {
	i := 0
	for _, page := range s.pages {
		for j := range page {
			fn(i, &page[j])
			i++
		}
	}
}

// find returns the position of host, or of the first host after it.
func (s *SysSnapshot) find(host string) (i int, found bool) {
	i = sort.Search(s.n, func(j int) bool { return s.At(j).Status.Host >= host })
	return i, i < s.n && s.At(i).Status.Host == host
}

// appendRange appends records [from, to) to dst, a page run at a time.
func (s *SysSnapshot) appendRange(dst []SysRecord, from, to int) []SysRecord {
	for from < to {
		page := s.pages[from/SysPageLen][from%SysPageLen:]
		page = page[:min(len(page), to-from)]
		dst = append(dst, page...)
		from += len(page)
	}
	return dst
}

// paginate cuts a sorted record list into freshly allocated pages.
func paginate(recs []SysRecord) [][]SysRecord {
	pages := make([][]SysRecord, 0, (len(recs)+SysPageLen-1)/SysPageLen)
	for len(recs) > 0 {
		k := min(len(recs), SysPageLen)
		pages = append(pages, slices.Clone(recs[:k]))
		recs = recs[k:]
	}
	return pages
}

// maxTombstones bounds the per-table tombstone maps. When a table
// exceeds it the tombstones are dropped wholesale and the deletion
// floor advances, forcing mirrors behind the floor onto a full
// resync; a sequence of 4096 expiries without one intervening resync
// is already a pathological fleet.
const maxTombstones = 4096

// changeLogCap bounds the in-memory changelog ring. ChangedSince
// serves a delta by walking only the ring entries newer than the
// caller's base instead of scanning every record, so its cost tracks
// the change rate, not the fleet size; a caller whose base has been
// evicted from the ring falls back to the historical full scan.
const changeLogCap = 4096

// Changelog table tags.
const (
	logSys = iota
	logNet
	logSec
)

// changeEntry records one version-stamping mutation. The key strings
// alias record-owned (or tombstone-key) strings, so appending an
// entry never allocates on the steady-state refresh path.
type changeEntry struct {
	table uint8
	ver   uint64
	key   string // sys/sec host, or net From
	key2  string // net To
}

// DB is the full status database shared by the monitors, the
// transmitter/receiver pair and the wizard.
type DB struct {
	mu    sync.RWMutex
	clock Clock
	sys   map[string]*SysRecord // keyed by server host
	net   map[string]*NetRecord // keyed by From+"\x00"+To
	sec   map[string]*SecRecord // keyed by host

	// ver is the database-wide mutation counter; guarded by mu.
	ver uint64
	// Tombstones map deleted keys to the version of the deletion, so
	// expiries propagate through deltas. Guarded by mu.
	sysTomb map[string]uint64
	netTomb map[status.NetKey]uint64
	secTomb map[string]uint64
	// tombFloor is the highest version whose tombstones may have been
	// discarded (pruning, or a whole-table Load). ChangedSince refuses
	// bases below it: such a mirror could miss a deletion and must
	// take a full snapshot. Guarded by mu.
	tombFloor uint64
	// keyBuf assembles composite net keys without allocating; guarded
	// by mu held for writing.
	keyBuf []byte

	// log is the circular changelog ring (see changeLogCap); logStart
	// indexes its oldest entry and logLen counts the live ones.
	// logFloor is the version of the newest evicted entry: bases at or
	// above it can be served from the ring alone. Guarded by mu.
	log      []changeEntry
	logStart int
	logLen   int
	logFloor uint64
	// Scratch key sets for the ring-served ChangedSince, reused across
	// calls so a per-tick delta allocates nothing once capacities
	// settle. Guarded by mu held for writing.
	scratchSys map[string]struct{}
	scratchNet map[status.NetKey]struct{}
	scratchSec map[string]struct{}

	// epoch counts sys content mutations; guarded by mu.
	epoch uint64
	// sysSnap is the current copy-on-write view of sys; nil when a
	// mutation has invalidated it. Rebuilt lazily on the next read,
	// which coalesces any burst of probe reports landing between two
	// selection requests into a single rebuild.
	sysSnap atomic.Pointer[SysSnapshot]
	// sysBase is the last snapshot built, kept past its invalidation:
	// the next rebuild copies it and re-reads only the hosts the
	// changelog names since (see sysViewRLocked).
	sysBase atomic.Pointer[SysSnapshot]
}

// New creates an empty database using the real clock.
func New() *DB { return NewWithClock(time.Now) }

// NewWithClock creates an empty database with an injected clock.
func NewWithClock(c Clock) *DB {
	return &DB{
		clock:   c,
		sys:     make(map[string]*SysRecord),
		net:     make(map[string]*NetRecord),
		sec:     make(map[string]*SecRecord),
		sysTomb: make(map[string]uint64),
		netTomb: make(map[status.NetKey]uint64),
		secTomb: make(map[string]uint64),
	}
}

// appendLogLocked records one mutation at the current version in the
// changelog ring, evicting the oldest entry (and raising logFloor)
// when the ring is full. Callers hold db.mu for writing and must have
// already advanced db.ver for this mutation.
func (db *DB) appendLogLocked(table uint8, key, key2 string) {
	if db.log == nil {
		db.log = make([]changeEntry, changeLogCap)
	}
	e := changeEntry{table: table, ver: db.ver, key: key, key2: key2}
	if db.logLen == changeLogCap {
		// Evict the oldest entry: a base below its version can no
		// longer prove it has seen everything, so the floor rises.
		db.logFloor = db.log[db.logStart].ver
		db.log[db.logStart] = e
		db.logStart = (db.logStart + 1) % changeLogCap
		return
	}
	db.log[(db.logStart+db.logLen)%changeLogCap] = e
	db.logLen++
}

// resetLogLocked discards the changelog, as after a whole-section
// Load: deltas can only resume from the current version.
func (db *DB) resetLogLocked() {
	db.logStart, db.logLen = 0, 0
	db.logFloor = db.ver
}

func netKey(from, to string) string { return from + "\x00" + to }

// netKeyLocked renders the composite key into the shared scratch
// buffer. Callers hold db.mu for writing and must not retain the
// string beyond the map operation it indexes.
func (db *DB) netKeyLocked(from, to []byte) []byte {
	db.keyBuf = append(db.keyBuf[:0], from...)
	db.keyBuf = append(db.keyBuf, 0)
	db.keyBuf = append(db.keyBuf, to...)
	return db.keyBuf
}

// invalidateSysLocked marks the sys table content-mutated. Callers
// hold db.mu for writing.
func (db *DB) invalidateSysLocked() {
	db.epoch++
	db.sysSnap.Store(nil)
}

// refreshSysLocked drops the cached snapshot after a timestamp-only
// refresh: the next SysView rebuild picks up the new UpdatedAt values
// while the epoch — and any selection memoized against it — stands.
func (db *DB) refreshSysLocked() {
	db.sysSnap.Store(nil)
}

// SysView returns the current snapshot of the server table: one atomic
// pointer load on the hot path, a lazy rebuild under the read lock
// after a mutation. The returned snapshot is immutable and shared
// between callers.
func (db *DB) SysView() *SysSnapshot {
	if s := db.sysSnap.Load(); s != nil {
		return s
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.sysViewRLocked()
}

// sysViewRLocked returns the current snapshot, rebuilding it when a
// mutation invalidated it. Callers hold db.mu at least for reading:
// writers are excluded, so a non-nil cached snapshot is current, and
// concurrent rebuilders compute the same snapshot.
//
// The rebuild follows the delta-else-resync rule the transport and
// the selection index use: when the changelog ring still covers the
// previous snapshot's version, the new one is that snapshot patched
// with the hosts written since; only a base the ring has passed (or a
// whole-table Load, which resets the ring) pays the collect-and-sort
// of the whole table.
func (db *DB) sysViewRLocked() *SysSnapshot {
	if s := db.sysSnap.Load(); s != nil {
		return s
	}
	pages, ok := db.patchedSysLocked(db.sysBase.Load())
	if !ok {
		recs := make([]SysRecord, 0, len(db.sys))
		for _, r := range db.sys {
			recs = append(recs, *r)
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].Status.Host < recs[j].Status.Host })
		pages = paginate(recs)
	}
	s := &SysSnapshot{Epoch: db.epoch, pages: pages, n: len(db.sys), ver: db.ver}
	db.sysSnap.Store(s)
	db.sysBase.Store(s)
	return s
}

// patchedSysLocked derives the current pages from base and the
// changelog: every sys mutation since base.ver — put, refresh, expiry,
// delta apply, merge — left a ring entry naming its host. While those
// hosts are all in base and still in the table, positions stand: the
// result is base's page table with only the pages holding such a host
// copied and overwritten, every other page shared. A host that joined
// or left shifts every position after it, so then the records are
// copied across in runs around the re-read hosts and cut into new
// pages. It declines (ok false) when the ring no longer reaches back
// to base.
func (db *DB) patchedSysLocked(base *SysSnapshot) (pages [][]SysRecord, ok bool) {
	if base == nil || base.ver < db.logFloor || base.ver > db.ver {
		return nil, false
	}
	// Ring entries are in version order: walk back from the newest. A
	// few reports between two requests is the common case, and fits the
	// stack.
	dirty := make([]string, 0, 16)
	for i := db.logLen - 1; i >= 0; i-- {
		e := &db.log[(db.logStart+i)%changeLogCap]
		if e.ver <= base.ver {
			break
		}
		if e.table != logSys {
			continue
		}
		dirty = append(dirty, e.key)
	}
	sort.Strings(dirty)
	dirty = slices.Compact(dirty)

	pages = slices.Clone(base.pages)
	owned := -1 // the page last copied: dirty is sorted, so pages come in order
	for _, host := range dirty {
		at, found := base.find(host)
		r, live := db.sys[host]
		if !found || !live {
			return db.respliceSysLocked(base, dirty), true
		}
		p := at / SysPageLen
		if p != owned {
			pages[p] = slices.Clone(pages[p])
			owned = p
		}
		pages[p][at%SysPageLen] = *r
	}
	return pages, true
}

// respliceSysLocked is the patch after a membership change: base's
// records in runs, with each dirty host dropped and, if it is still in
// the table, re-read in its place.
func (db *DB) respliceSysLocked(base *SysSnapshot, dirty []string) [][]SysRecord {
	recs := make([]SysRecord, 0, len(db.sys))
	from := 0
	for _, host := range dirty {
		at, found := base.find(host)
		recs = base.appendRange(recs, from, at)
		from = at
		if found {
			from++
		}
		if r, live := db.sys[host]; live {
			recs = append(recs, *r)
		}
	}
	return paginate(base.appendRange(recs, from, base.n))
}

// ResyncView returns the sys snapshot, the security table, and the
// (version, epoch) pair they correspond to, all read under one lock.
// It is the selection index's rebuild source — the analogue of the
// transport's full-snapshot resync when a delta base has fallen
// behind retained history.
func (db *DB) ResyncView() (snap *SysSnapshot, sec []SecRecord, ver, epoch uint64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	snap = db.sysViewRLocked()
	sec = make([]SecRecord, 0, len(db.sec))
	for _, r := range db.sec {
		sec = append(sec, *r)
	}
	sort.Slice(sec, func(i, j int) bool { return sec[i].Level.Host < sec[j].Level.Host })
	return snap, sec, db.ver, db.epoch
}

// SysEpoch reports the sys table's content-mutation counter.
func (db *DB) SysEpoch() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.epoch
}

// Ver reports the database-wide version counter: the stamp of the
// latest mutation across all three tables, refreshes included.
func (db *DB) Ver() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ver
}

// Now reads the database clock. Selection code uses it to compute
// freshness cutoffs against a snapshot's timestamps with the same
// clock that stamped them.
func (db *DB) Now() time.Time {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.clock()
}

// putSysLocked is the shared upsert: a same-content report refreshes
// the existing record in place (timestamp and RefVer only), a changed
// one replaces it and bumps the epoch. Callers hold db.mu for
// writing. Reports whether content changed.
func (db *DB) putSysLocked(s status.ServerStatus, now time.Time) bool {
	r, ok := db.sys[s.Host]
	db.ver++
	if ok && r.Status == s {
		r.UpdatedAt = now
		r.RefVer = db.ver
		db.appendLogLocked(logSys, r.Status.Host, "")
		return false
	}
	if ok {
		// Readers only ever copy records out under the lock, so a known
		// host's record is overwritten where it stands: a fleet
		// reporting new values allocates nothing per report.
		*r = SysRecord{Status: s, UpdatedAt: now, Ver: db.ver, RefVer: db.ver}
	} else {
		r = &SysRecord{Status: s, UpdatedAt: now, Ver: db.ver, RefVer: db.ver}
		db.sys[s.Host] = r
		delete(db.sysTomb, s.Host)
	}
	db.appendLogLocked(logSys, r.Status.Host, "")
	return true
}

// PutSys inserts or updates a server status record (§3.2.2: existing
// addresses are updated in place, new ones inserted).
func (db *DB) PutSys(s status.ServerStatus) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.putSysLocked(s, db.clock()) {
		db.invalidateSysLocked()
	} else {
		db.refreshSysLocked()
	}
}

// GetSys returns the record for one host.
func (db *DB) GetSys(host string) (SysRecord, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.sys[host]
	if !ok {
		return SysRecord{}, false
	}
	return *r, true
}

// Sys returns all server records, sorted by host for determinism.
// The slice is the caller's to keep; it is copied off the current
// snapshot rather than assembled under the lock.
func (db *DB) Sys() []SysRecord {
	snap := db.SysView()
	return snap.appendRange(make([]SysRecord, 0, snap.n), 0, snap.n)
}

// FreshSys returns only the server records updated within maxAge,
// sorted by host. Readers that cannot wait for the monitor's expiry
// sweep (the wizard answering a selection request) use this to keep
// dead servers out of candidate lists between sweeps. A non-positive
// maxAge disables the filter.
func (db *DB) FreshSys(maxAge time.Duration) []SysRecord {
	if maxAge <= 0 {
		return db.Sys()
	}
	snap := db.SysView()
	cutoff := db.Now().Add(-maxAge)
	out := make([]SysRecord, 0, snap.n)
	snap.Each(func(_ int, r *SysRecord) {
		if !r.UpdatedAt.Before(cutoff) {
			out = append(out, *r)
		}
	})
	return out
}

// SysLen reports the number of live server records.
func (db *DB) SysLen() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.sys)
}

// NetLen reports the number of live network metric records.
func (db *DB) NetLen() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.net)
}

// SecLen reports the number of live security level records.
func (db *DB) SecLen() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.sec)
}

// ExpireSys removes server records older than maxAge and returns the
// expired hosts. The system monitor calls this regularly; an expired
// server receives no further tasks until its probe resumes (§3.2.2).
// Each removal leaves a tombstone so mirrors learn of the deletion
// through deltas.
func (db *DB) ExpireSys(maxAge time.Duration) []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	cutoff := db.clock().Add(-maxAge)
	var expired []string
	for host, r := range db.sys {
		if r.UpdatedAt.Before(cutoff) {
			delete(db.sys, host)
			expired = append(expired, host)
		}
	}
	if len(expired) > 0 {
		db.ver++
		for _, host := range expired {
			db.sysTomb[host] = db.ver
			db.appendLogLocked(logSys, host, "")
		}
		db.pruneTombsLocked()
		db.invalidateSysLocked()
	}
	sort.Strings(expired)
	return expired
}

// PutNet inserts or updates a network metric record.
func (db *DB) PutNet(m status.NetMetric) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.putNetLocked(m, db.clock())
}

func (db *DB) putNetLocked(m status.NetMetric, now time.Time) {
	k := netKey(m.From, m.To)
	if r, ok := db.net[k]; ok && r.Metric == m {
		db.ver++
		r.UpdatedAt = now
		r.RefVer = db.ver
		db.appendLogLocked(logNet, r.Metric.From, r.Metric.To)
		return
	}
	db.ver++
	r := &NetRecord{Metric: m, UpdatedAt: now, Ver: db.ver, RefVer: db.ver}
	db.net[k] = r
	delete(db.netTomb, status.NetKey{From: m.From, To: m.To})
	db.appendLogLocked(logNet, r.Metric.From, r.Metric.To)
}

// GetNet returns the metric for one directed monitor pair.
func (db *DB) GetNet(from, to string) (NetRecord, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.net[netKey(from, to)]
	if !ok {
		return NetRecord{}, false
	}
	return *r, true
}

// Net returns all network records, sorted by (From, To).
func (db *DB) Net() []NetRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]NetRecord, 0, len(db.net))
	for _, r := range db.net {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Metric.From != out[j].Metric.From {
			return out[i].Metric.From < out[j].Metric.From
		}
		return out[i].Metric.To < out[j].Metric.To
	})
	return out
}

// ExpireNet removes network records older than maxAge, leaving
// tombstones.
func (db *DB) ExpireNet(maxAge time.Duration) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	cutoff := db.clock().Add(-maxAge)
	n := 0
	for k, r := range db.net {
		if r.UpdatedAt.Before(cutoff) {
			delete(db.net, k)
			if n == 0 {
				db.ver++
			}
			db.netTomb[status.NetKey{From: r.Metric.From, To: r.Metric.To}] = db.ver
			db.appendLogLocked(logNet, r.Metric.From, r.Metric.To)
			n++
		}
	}
	if n > 0 {
		db.pruneTombsLocked()
	}
	return n
}

// ExpireSec removes security records older than maxAge, leaving
// tombstones.
func (db *DB) ExpireSec(maxAge time.Duration) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	cutoff := db.clock().Add(-maxAge)
	n := 0
	for k, r := range db.sec {
		if r.UpdatedAt.Before(cutoff) {
			delete(db.sec, k)
			if n == 0 {
				db.ver++
			}
			db.secTomb[k] = db.ver
			db.appendLogLocked(logSec, r.Level.Host, "")
			n++
		}
	}
	if n > 0 {
		db.pruneTombsLocked()
	}
	return n
}

// PutSec inserts or updates a security record.
func (db *DB) PutSec(l status.SecLevel) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.putSecLocked(l, db.clock())
}

func (db *DB) putSecLocked(l status.SecLevel, now time.Time) {
	if r, ok := db.sec[l.Host]; ok && r.Level == l {
		db.ver++
		r.UpdatedAt = now
		r.RefVer = db.ver
		db.appendLogLocked(logSec, r.Level.Host, "")
		return
	}
	db.ver++
	r := &SecRecord{Level: l, UpdatedAt: now, Ver: db.ver, RefVer: db.ver}
	db.sec[l.Host] = r
	delete(db.secTomb, l.Host)
	db.appendLogLocked(logSec, r.Level.Host, "")
}

// GetSec returns the security record for one host.
func (db *DB) GetSec(host string) (SecRecord, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.sec[host]
	if !ok {
		return SecRecord{}, false
	}
	return *r, true
}

// Sec returns all security records, sorted by host.
func (db *DB) Sec() []SecRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]SecRecord, 0, len(db.sec))
	for _, r := range db.sec {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Level.Host < out[j].Level.Host })
	return out
}

// pruneTombsLocked drops a table's tombstones wholesale once it
// exceeds maxTombstones and raises the deletion floor, pushing any
// mirror with an older base onto a full resync.
func (db *DB) pruneTombsLocked() {
	if len(db.sysTomb) > maxTombstones {
		db.sysTomb = make(map[string]uint64)
		db.tombFloor = db.ver
	}
	if len(db.netTomb) > maxTombstones {
		db.netTomb = make(map[status.NetKey]uint64)
		db.tombFloor = db.ver
	}
	if len(db.secTomb) > maxTombstones {
		db.secTomb = make(map[string]uint64)
		db.tombFloor = db.ver
	}
}

// Snapshot copies the three databases into plain batches, the unit the
// transmitter ships to the receiver (§3.5.1).
func (db *DB) Snapshot() (sys []status.ServerStatus, net []status.NetMetric, sec []status.SecLevel) {
	sys, net, sec, _ = db.SnapshotAt()
	return sys, net, sec
}

// SnapshotAt is Snapshot plus the database version the batches
// represent, read atomically with the copy so a transmitter can
// resume the delta stream from exactly this point.
func (db *DB) SnapshotAt() (sys []status.ServerStatus, net []status.NetMetric, sec []status.SecLevel, ver uint64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	sys = make([]status.ServerStatus, 0, len(db.sys))
	for _, r := range db.sys {
		sys = append(sys, r.Status)
	}
	net = make([]status.NetMetric, 0, len(db.net))
	for _, r := range db.net {
		net = append(net, r.Metric)
	}
	sec = make([]status.SecLevel, 0, len(db.sec))
	for _, r := range db.sec {
		sec = append(sec, r.Level)
	}
	sort.Slice(sys, func(i, j int) bool { return sys[i].Host < sys[j].Host })
	sort.Slice(net, func(i, j int) bool {
		if net[i].From != net[j].From {
			return net[i].From < net[j].From
		}
		return net[i].To < net[j].To
	})
	sort.Slice(sec, func(i, j int) bool { return sec[i].Host < sec[j].Host })
	return sys, net, sec, db.ver
}

// ChangedSince fills the three deltas with every mutation stamped
// after base — changed records, tombstones, and same-content
// refreshes — and returns the version the deltas bring a mirror to.
// The deltas' slices are reset and reused, so a per-tick caller
// allocates nothing once capacities settle. ok is false when base
// predates retained tombstone history (or lies ahead of this
// database, as after a source restart): the mirror could miss a
// deletion, so it must take a full snapshot instead.
func (db *DB) ChangedSince(base uint64, sys *status.SysDelta, net *status.NetDelta, sec *status.SecDelta) (ver uint64, ok bool) {
	ver, _, ok = db.ChangedSinceAt(base, sys, net, sec)
	return ver, ok
}

// ChangedSinceAt is ChangedSince plus the sys-table epoch the deltas
// bring a mirror to, read atomically with the version. Incremental
// consumers keyed by content epoch (the selection index) use the pair
// to prove their candidate sets match a snapshot.
//
// It takes the write lock: when base is recent enough the delta is
// assembled by walking only the changelog ring entries above base —
// cost proportional to the change rate — using scratch key sets owned
// by the database, and only a base older than the ring's floor pays
// the historical full-table scan.
func (db *DB) ChangedSinceAt(base uint64, sys *status.SysDelta, net *status.NetDelta, sec *status.SecDelta) (ver, epoch uint64, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if base < db.tombFloor || base > db.ver {
		return db.ver, db.epoch, false
	}
	sys.Reset(base, db.ver)
	net.Reset(base, db.ver)
	sec.Reset(base, db.ver)
	if base == db.ver {
		return db.ver, db.epoch, true
	}
	if base >= db.logFloor {
		db.changedFromLogLocked(base, sys, net, sec)
	} else {
		db.changedFromScanLocked(base, sys, net, sec)
	}
	sortSysDelta(sys)
	sortNetDelta(net)
	sortSecDelta(sec)
	return db.ver, db.epoch, true
}

// changedFromLogLocked classifies only the keys the changelog ring
// proves were stamped after base. A key may appear in several ring
// entries, so the scratch sets dedupe before the per-key
// classification, which matches changedFromScanLocked exactly: the
// live record decides changed-vs-refreshed, a tombstone above base
// decides deleted.
func (db *DB) changedFromLogLocked(base uint64, sys *status.SysDelta, net *status.NetDelta, sec *status.SecDelta) {
	if db.scratchSys == nil {
		db.scratchSys = make(map[string]struct{})
		db.scratchNet = make(map[status.NetKey]struct{})
		db.scratchSec = make(map[string]struct{})
	}
	for i := 0; i < db.logLen; i++ {
		e := &db.log[(db.logStart+i)%changeLogCap]
		if e.ver <= base {
			continue
		}
		switch e.table {
		case logSys:
			db.scratchSys[e.key] = struct{}{}
		case logNet:
			db.scratchNet[status.NetKey{From: e.key, To: e.key2}] = struct{}{}
		case logSec:
			db.scratchSec[e.key] = struct{}{}
		}
	}
	for host := range db.scratchSys {
		if r, live := db.sys[host]; live {
			if r.Ver > base {
				sys.Changed = append(sys.Changed, r.Status)
			} else if r.RefVer > base {
				sys.Refreshed = append(sys.Refreshed, host)
			}
		} else if db.sysTomb[host] > base {
			sys.Deleted = append(sys.Deleted, host)
		}
	}
	for k := range db.scratchNet {
		if r, live := db.net[netKey(k.From, k.To)]; live {
			if r.Ver > base {
				net.Changed = append(net.Changed, r.Metric)
			} else if r.RefVer > base {
				net.Refreshed = append(net.Refreshed, k)
			}
		} else if db.netTomb[k] > base {
			net.Deleted = append(net.Deleted, k)
		}
	}
	for host := range db.scratchSec {
		if r, live := db.sec[host]; live {
			if r.Ver > base {
				sec.Changed = append(sec.Changed, r.Level)
			} else if r.RefVer > base {
				sec.Refreshed = append(sec.Refreshed, host)
			}
		} else if db.secTomb[host] > base {
			sec.Deleted = append(sec.Deleted, host)
		}
	}
	clear(db.scratchSys)
	clear(db.scratchNet)
	clear(db.scratchSec)
}

// changedFromScanLocked is the historical full-table classification,
// kept for bases that predate the changelog ring.
func (db *DB) changedFromScanLocked(base uint64, sys *status.SysDelta, net *status.NetDelta, sec *status.SecDelta) {
	for host, r := range db.sys {
		if r.Ver > base {
			sys.Changed = append(sys.Changed, r.Status)
		} else if r.RefVer > base {
			sys.Refreshed = append(sys.Refreshed, host)
		}
	}
	for host, v := range db.sysTomb {
		if v > base {
			sys.Deleted = append(sys.Deleted, host)
		}
	}
	for _, r := range db.net {
		if r.Ver > base {
			net.Changed = append(net.Changed, r.Metric)
		} else if r.RefVer > base {
			net.Refreshed = append(net.Refreshed, status.NetKey{From: r.Metric.From, To: r.Metric.To})
		}
	}
	for k, v := range db.netTomb {
		if v > base {
			net.Deleted = append(net.Deleted, k)
		}
	}
	for host, r := range db.sec {
		if r.Ver > base {
			sec.Changed = append(sec.Changed, r.Level)
		} else if r.RefVer > base {
			sec.Refreshed = append(sec.Refreshed, host)
		}
	}
	for host, v := range db.secTomb {
		if v > base {
			sec.Deleted = append(sec.Deleted, host)
		}
	}
}

func sortSysDelta(d *status.SysDelta) {
	sort.Slice(d.Changed, func(i, j int) bool { return d.Changed[i].Host < d.Changed[j].Host })
	sort.Strings(d.Deleted)
	sort.Strings(d.Refreshed)
}

func sortNetDelta(d *status.NetDelta) {
	sort.Slice(d.Changed, func(i, j int) bool {
		if d.Changed[i].From != d.Changed[j].From {
			return d.Changed[i].From < d.Changed[j].From
		}
		return d.Changed[i].To < d.Changed[j].To
	})
	less := func(a, b status.NetKey) bool {
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	}
	sort.Slice(d.Deleted, func(i, j int) bool { return less(d.Deleted[i], d.Deleted[j]) })
	sort.Slice(d.Refreshed, func(i, j int) bool { return less(d.Refreshed[i], d.Refreshed[j]) })
}

func sortSecDelta(d *status.SecDelta) {
	sort.Slice(d.Changed, func(i, j int) bool { return d.Changed[i].Host < d.Changed[j].Host })
	sort.Strings(d.Deleted)
	sort.Strings(d.Refreshed)
}

// ApplySysDelta merges one decoded sys delta into the table: changed
// records are upserted, tombstoned hosts removed, refreshed hosts
// re-stamped in place. The deleted and refreshed keys may alias a
// frame buffer; they are not retained. The snapshot epoch bumps only
// when membership or content actually moved, so a refresh-only tick
// leaves the wizard's memoized selections valid.
func (db *DB) ApplySysDelta(changed []status.ServerStatus, deleted, refreshed [][]byte) {
	db.mu.Lock()
	defer db.mu.Unlock()
	now := db.clock()
	mutated := false
	for _, s := range changed {
		if db.putSysLocked(s, now) {
			mutated = true
		}
	}
	deletedAny := false
	for _, h := range deleted {
		if _, ok := db.sys[string(h)]; ok {
			delete(db.sys, string(h))
			// Mirror-side deletions get the same version/tombstone
			// bookkeeping as source-side expiries, so an incremental
			// consumer of this database (the wizard's selection index)
			// observes them through ChangedSince too.
			if !deletedAny {
				db.ver++
				deletedAny = true
			}
			host := string(h)
			db.sysTomb[host] = db.ver
			db.appendLogLocked(logSys, host, "")
			mutated = true
		}
	}
	if deletedAny {
		db.pruneTombsLocked()
	}
	refreshedAny := false
	for _, h := range refreshed {
		if r, ok := db.sys[string(h)]; ok {
			db.ver++
			r.UpdatedAt = now
			r.RefVer = db.ver
			db.appendLogLocked(logSys, r.Status.Host, "")
			refreshedAny = true
		}
	}
	if mutated {
		db.invalidateSysLocked()
	} else if refreshedAny {
		db.refreshSysLocked()
	}
}

// ApplyNetDelta merges one decoded net delta into the table.
func (db *DB) ApplyNetDelta(changed []status.NetMetric, deleted, refreshed []status.NetKeyView) {
	db.mu.Lock()
	defer db.mu.Unlock()
	now := db.clock()
	for _, m := range changed {
		db.putNetLocked(m, now)
	}
	deletedAny := false
	for _, k := range deleted {
		if _, ok := db.net[string(db.netKeyLocked(k.From, k.To))]; ok {
			delete(db.net, string(db.netKeyLocked(k.From, k.To)))
			if !deletedAny {
				db.ver++
				deletedAny = true
			}
			from, to := string(k.From), string(k.To)
			db.netTomb[status.NetKey{From: from, To: to}] = db.ver
			db.appendLogLocked(logNet, from, to)
		}
	}
	if deletedAny {
		db.pruneTombsLocked()
	}
	for _, k := range refreshed {
		if r, ok := db.net[string(db.netKeyLocked(k.From, k.To))]; ok {
			db.ver++
			r.UpdatedAt = now
			r.RefVer = db.ver
			db.appendLogLocked(logNet, r.Metric.From, r.Metric.To)
		}
	}
}

// ApplySecDelta merges one decoded sec delta into the table.
func (db *DB) ApplySecDelta(changed []status.SecLevel, deleted, refreshed [][]byte) {
	db.mu.Lock()
	defer db.mu.Unlock()
	now := db.clock()
	for _, l := range changed {
		db.putSecLocked(l, now)
	}
	deletedAny := false
	for _, h := range deleted {
		if _, ok := db.sec[string(h)]; ok {
			delete(db.sec, string(h))
			if !deletedAny {
				db.ver++
				deletedAny = true
			}
			host := string(h)
			db.secTomb[host] = db.ver
			db.appendLogLocked(logSec, host, "")
		}
	}
	if deletedAny {
		db.pruneTombsLocked()
	}
	for _, h := range refreshed {
		if r, ok := db.sec[string(h)]; ok {
			db.ver++
			r.UpdatedAt = now
			r.RefVer = db.ver
			db.appendLogLocked(logSec, r.Level.Host, "")
		}
	}
}

// Merge upserts received batches record by record under one lock,
// without clearing the tables first. The distributed-mode receiver
// uses it when combining pulls from several transmitters, so one
// transmitter's full reply cannot clobber the records another,
// fresher one contributed (the historical whole-table Load did).
// Records absent from every transmitter age out via the freshness
// filters instead of vanishing mid-merge.
func (db *DB) Merge(sys []status.ServerStatus, net []status.NetMetric, sec []status.SecLevel) {
	db.mu.Lock()
	defer db.mu.Unlock()
	now := db.clock()
	mutated, refreshed := false, false
	for _, s := range sys {
		if db.putSysLocked(s, now) {
			mutated = true
		} else {
			refreshed = true
		}
	}
	for _, m := range net {
		db.putNetLocked(m, now)
	}
	for _, l := range sec {
		db.putSecLocked(l, now)
	}
	if mutated {
		db.invalidateSysLocked()
	} else if refreshed {
		db.refreshSysLocked()
	}
}

// Load replaces whole sections of the database from received batches;
// the receiver uses it to mirror the transmitter's contents on a full
// snapshot or resync (§3.5.2). Nil slices leave the corresponding
// section untouched. Replacing a section discards its tombstone
// history, so the deletion floor advances: deltas can only resume
// from this version onward.
func (db *DB) Load(sys []status.ServerStatus, net []status.NetMetric, sec []status.SecLevel) {
	db.mu.Lock()
	defer db.mu.Unlock()
	now := db.clock()
	if sys != nil {
		db.ver++
		db.sys = make(map[string]*SysRecord, len(sys))
		for _, s := range sys {
			db.sys[s.Host] = &SysRecord{Status: s, UpdatedAt: now, Ver: db.ver, RefVer: db.ver}
		}
		db.sysTomb = make(map[string]uint64)
		db.tombFloor = db.ver
		db.invalidateSysLocked()
	}
	if net != nil {
		db.ver++
		db.net = make(map[string]*NetRecord, len(net))
		for _, m := range net {
			db.net[netKey(m.From, m.To)] = &NetRecord{Metric: m, UpdatedAt: now, Ver: db.ver, RefVer: db.ver}
		}
		db.netTomb = make(map[status.NetKey]uint64)
		db.tombFloor = db.ver
	}
	if sec != nil {
		db.ver++
		db.sec = make(map[string]*SecRecord, len(sec))
		for _, l := range sec {
			db.sec[l.Host] = &SecRecord{Level: l, UpdatedAt: now, Ver: db.ver, RefVer: db.ver}
		}
		db.secTomb = make(map[string]uint64)
		db.tombFloor = db.ver
	}
	if sys != nil || net != nil || sec != nil {
		// The replaced sections' per-record history is gone; like the
		// tombstone floor, the changelog restarts at this version.
		db.resetLogLocked()
	}
}
