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
//
// The three databases are three instances of one versioned table
// (table.go). A table differs from another only in its key type, its
// record type and — for sys — the snapshot hook below.
package store

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"smartsock/internal/status"
)

// Clock abstracts time so tests can drive expiry deterministically.
type Clock func() time.Time

// SysRecord is a server status report plus its arrival time and versions.
type SysRecord struct {
	Status status.ServerStatus
	Stamp
}

// NetRecord is a network metric plus its measurement time and versions.
type NetRecord struct {
	Metric status.NetMetric
	Stamp
}

// SecRecord is a security level plus its report time and versions.
type SecRecord struct {
	Level status.SecLevel
	Stamp
}

// SysSnapshot is an immutable, epoch-versioned view of the server
// status table. Writers publish a new snapshot when the table
// mutates; readers grab the current one with a single atomic load, so
// the selection hot path evaluates candidates without copying the
// table or holding any lock. Records are sorted by host and held in
// fixed-size pages that successive snapshots share: a page is never
// written once a snapshot holding it is published.
type SysSnapshot struct {
	// Epoch increments on every content mutation of the sys table:
	// two snapshots with the same epoch hold the same hosts with the
	// same status values. A same-content refresh re-stamps UpdatedAt
	// without advancing the epoch, so selection memoized against an
	// epoch stays valid across idle probe ticks.
	Epoch uint64
	// pages holds the n records in host order, SysPageLen to a page
	// (the last may be short).
	pages []*SysPage
	n     int
	// ver is the database version the snapshot reflects: the changelog
	// entries above it name the hosts a successor must re-read.
	ver uint64
}

// SysPageLen is the records per snapshot page: as many as fit the
// 16 KB allocation class, so a page wastes under one record of it. A
// rebuild after a report copies one such page plus the page table
// (8 bytes a page); the sweep in DESIGN.md ("Wizard fast path") puts
// the minimum of the two between 8 and 32 KB from 20k to 100k hosts.
const SysPageLen = 16 << 10 / int(unsafe.Sizeof(SysRecord{}))

// SysPage is one snapshot page, struct-of-arrays: one allocation with
// an array per raw ServerStatus field (numbers in status.Fields order,
// memory kept uint64), so a page gives back exactly the record put.
type SysPage struct {
	id    uint64
	n     int
	num   [17][SysPageLen]float64
	mem   [3][SysPageLen]uint64
	host  [SysPageLen]string
	iface [SysPageLen]string
	stamp [SysPageLen]Stamp
}

// Len reports the number of records on the page.
func (p *SysPage) Len() int { return p.n }

// pageIDs numbers the pages rebuilds create; an ID only has to be unique.
var pageIDs atomic.Uint64

// ID names the page: a published page never changes and IDs never repeat.
func (p *SysPage) ID() uint64 { return p.id }

// Host returns the host of the record at offset i.
func (p *SysPage) Host(i int) string { return p.host[i] }

// UpdatedAt returns the arrival time of the record at offset i.
func (p *SysPage) UpdatedAt(i int) time.Time { return p.stamp[i].UpdatedAt }

// Column returns status variable v (a status.VarIndex) of the page's
// records by offset, as VarAt reads it: a float field in place, a
// memory counter converted into buf. Callers must not write it.
func (p *SysPage) Column(v int, buf *[SysPageLen]float64) []float64 {
	f := status.FieldOf(v)
	if f.Scale == 0 {
		return p.num[f.Field][:p.n]
	}
	for i, m := range p.mem[f.Field][:p.n] {
		buf[i] = float64(m) * f.Scale
	}
	return buf[:p.n]
}

// set writes r at offset i of a page no published snapshot holds.
func (p *SysPage) set(i int, r *SysRecord) {
	floats, mems := r.Status.Fields()
	for c, f := range floats {
		p.num[c][i] = *f
	}
	for c, m := range mems {
		p.mem[c][i] = *m
	}
	p.host[i], p.iface[i], p.stamp[i] = r.Status.Host, r.Status.NetIface, r.Stamp
}

// record materialises the record at offset i.
func (p *SysPage) record(i int) (r SysRecord) {
	floats, mems := r.Status.Fields()
	for c, f := range floats {
		*f = p.num[c][i]
	}
	for c, m := range mems {
		*m = p.mem[c][i]
	}
	r.Status.Host, r.Status.NetIface, r.Stamp = p.host[i], p.iface[i], p.stamp[i]
	return r
}

// Len reports the number of records in the snapshot.
func (s *SysSnapshot) Len() int { return s.n }

// At materialises the i-th record in host order, 0 <= i < Len().
func (s *SysSnapshot) At(i int) SysRecord { return s.pages[i/SysPageLen].record(i % SysPageLen) }

// Host returns the host of the i-th record, 0 <= i < Len().
func (s *SysSnapshot) Host(i int) string { return s.pages[i/SysPageLen].host[i%SysPageLen] }

// PageOf returns the page holding position i and its first record's position.
func (s *SysSnapshot) PageOf(i int) (*SysPage, int) {
	return s.pages[i/SysPageLen], i - i%SysPageLen
}

// Each calls fn on every record in host order, materialised into one
// reused record: the full-table walk.
func (s *SysSnapshot) Each(fn func(i int, r *SysRecord)) {
	var r SysRecord
	for i := 0; i < s.n; i++ {
		r = s.At(i)
		fn(i, &r)
	}
}

// find returns the position of host, or of the first host after it.
func (s *SysSnapshot) find(host string) (i int, found bool) {
	i = sort.Search(s.n, func(j int) bool { return s.Host(j) >= host })
	return i, i < s.n && s.Host(i) == host
}

// pager cuts records, in order, into freshly allocated pages.
type pager []*SysPage

func (pg *pager) add(r *SysRecord) {
	if len(*pg) == 0 || (*pg)[len(*pg)-1].n == SysPageLen {
		*pg = append(*pg, &SysPage{id: pageIDs.Add(1)})
	}
	p := (*pg)[len(*pg)-1]
	p.set(p.n, r)
	p.n++
}

// addRange adds records [from, to) of s.
func (pg *pager) addRange(s *SysSnapshot, from, to int) {
	for ; from < to; from++ {
		r := s.At(from)
		pg.add(&r)
	}
}

// DB is the full status database shared by the monitors, the
// transmitter/receiver pair and the wizard.
type DB struct {
	mu    sync.RWMutex
	clock Clock
	sys   table[string, status.ServerStatus, SysRecord] // keyed by server host
	net   table[status.NetKey, status.NetMetric, NetRecord]
	sec   table[string, status.SecLevel, SecRecord] // keyed by host

	// ver is the database-wide mutation counter; guarded by mu.
	ver uint64
	// tombFloor is the highest version whose tombstones may have been
	// discarded (pruning, or a whole-table Load). ChangedSince refuses
	// bases below it: such a mirror could miss a deletion and must
	// take a full snapshot. Guarded by mu.
	tombFloor uint64

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
	db := &DB{clock: c}
	db.sys = newTable(db,
		func(s *status.ServerStatus) string { return s.Host },
		func(r *SysRecord) (*status.ServerStatus, *Stamp) { return &r.Status, &r.Stamp },
		strings.Compare)
	db.net = newTable(db,
		func(m *status.NetMetric) status.NetKey { return status.NetKey{From: m.From, To: m.To} },
		func(r *NetRecord) (*status.NetMetric, *Stamp) { return &r.Metric, &r.Stamp },
		status.NetKey.Compare)
	db.sec = newTable(db,
		func(l *status.SecLevel) string { return l.Host },
		func(r *SecRecord) (*status.SecLevel, *Stamp) { return &r.Level, &r.Stamp },
		strings.Compare)
	return db
}

// sysMoved is the sys table's hook, the one thing the other two tables
// lack: a write that moved content or membership bumps the epoch, and
// one that at least touched a timestamp drops the cached snapshot — the
// next SysView rebuild picks up the new UpdatedAt values while the
// epoch, and any selection memoized against it, stands. Callers hold
// db.mu for writing.
func (db *DB) sysMoved(moved, touched bool) {
	if moved {
		db.epoch++
	}
	if moved || touched {
		db.sysSnap.Store(nil)
	}
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
		pg := make(pager, 0, (len(db.sys.live)+SysPageLen-1)/SysPageLen)
		for _, host := range db.sys.sortedKeys() {
			pg.add(db.sys.live[host])
		}
		pages = pg
	}
	s := &SysSnapshot{Epoch: db.epoch, pages: pages, n: len(db.sys.live), ver: db.ver}
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
func (db *DB) patchedSysLocked(base *SysSnapshot) (pages []*SysPage, ok bool) {
	if base == nil || base.ver < db.sys.logFloor || base.ver > db.ver {
		return nil, false
	}
	// A few reports between two requests is the common case, and fits
	// the stack.
	dirty := db.sys.ringKeys(base.ver, make([]string, 0, 16))

	pages = slices.Clone(base.pages)
	owned := -1 // the page last copied: dirty is sorted, so pages come in order
	for _, host := range dirty {
		at, found := base.find(host)
		r, live := db.sys.live[host]
		if !found || !live {
			return db.respliceSysLocked(base, dirty), true
		}
		p := at / SysPageLen
		if p != owned {
			clone := *pages[p]
			clone.id = pageIDs.Add(1)
			pages[p] = &clone
			owned = p
		}
		pages[p].set(at%SysPageLen, r)
	}
	return pages, true
}

// respliceSysLocked is the patch after a membership change: base's
// records in runs, with each dirty host dropped and, if it is still in
// the table, re-read in its place.
func (db *DB) respliceSysLocked(base *SysSnapshot, dirty []string) []*SysPage {
	pg := make(pager, 0, (len(db.sys.live)+SysPageLen-1)/SysPageLen)
	from := 0
	for _, host := range dirty {
		at, found := base.find(host)
		pg.addRange(base, from, at)
		from = at
		if found {
			from++
		}
		if r, live := db.sys.live[host]; live {
			pg.add(r)
		}
	}
	pg.addRange(base, from, base.n)
	return pg
}

// ResyncView returns the sys snapshot, the security table, and the
// (version, epoch) pair they correspond to, all read under one lock.
// It is the selection index's rebuild source — the analogue of the
// transport's full-snapshot resync when a delta base has fallen
// behind retained history.
func (db *DB) ResyncView() (snap *SysSnapshot, sec []SecRecord, ver, epoch uint64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.sysViewRLocked(), db.sec.records(), db.ver, db.epoch
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

// PutSys inserts or updates a server status record.
func (db *DB) PutSys(s status.ServerStatus) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.sysMoved(db.sys.upsert(s.Host, &s, db.clock()), true)
}

// PutNet inserts or updates a network metric record.
func (db *DB) PutNet(m status.NetMetric) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.net.upsert(status.NetKey{From: m.From, To: m.To}, &m, db.clock())
}

// PutSec inserts or updates a security record.
func (db *DB) PutSec(l status.SecLevel) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.sec.upsert(l.Host, &l, db.clock())
}

// GetSys returns the record for one host.
func (db *DB) GetSys(host string) (SysRecord, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.sys.get(host)
}

// GetNet returns the metric for one directed monitor pair.
func (db *DB) GetNet(from, to string) (NetRecord, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.net.get(status.NetKey{From: from, To: to})
}

// GetSec returns the security record for one host.
func (db *DB) GetSec(host string) (SecRecord, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.sec.get(host)
}

// Sys returns all server records, sorted by host for determinism.
// The slice is the caller's to keep; it is copied off the current
// snapshot rather than assembled under the lock.
func (db *DB) Sys() []SysRecord { return db.FreshSys(0) }

// Net returns all network records, sorted by (From, To).
func (db *DB) Net() []NetRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.net.records()
}

// Sec returns all security records, sorted by host.
func (db *DB) Sec() []SecRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.sec.records()
}

// FreshSys returns only the server records updated within maxAge,
// sorted by host. Readers that cannot wait for the monitor's expiry
// sweep (the wizard answering a selection request) use this to keep
// dead servers out of candidate lists between sweeps. A non-positive
// maxAge disables the filter.
func (db *DB) FreshSys(maxAge time.Duration) []SysRecord {
	snap := db.SysView()
	var cutoff time.Time // the zero time: nothing is before it
	if maxAge > 0 {
		cutoff = db.Now().Add(-maxAge)
	}
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
	return len(db.sys.live)
}

// NetLen reports the number of live network metric records.
func (db *DB) NetLen() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.net.live)
}

// SecLen reports the number of live security level records.
func (db *DB) SecLen() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.sec.live)
}

// ExpireSys removes server records older than maxAge and returns the
// expired hosts. The system monitor calls this regularly; an expired
// server receives no further tasks until its probe resumes (§3.2.2).
// Each removal leaves a tombstone so mirrors learn of the deletion
// through deltas.
func (db *DB) ExpireSys(maxAge time.Duration) []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	expired := db.sys.expire(db.clock().Add(-maxAge))
	db.sysMoved(len(expired) > 0, false)
	sort.Strings(expired)
	return expired
}

// ExpireNet removes network records older than maxAge, leaving
// tombstones.
func (db *DB) ExpireNet(maxAge time.Duration) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.net.expire(db.clock().Add(-maxAge)))
}

// ExpireSec removes security records older than maxAge, leaving
// tombstones.
func (db *DB) ExpireSec(maxAge time.Duration) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.sec.expire(db.clock().Add(-maxAge)))
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
	return db.sys.values(), db.net.values(), db.sec.values(), db.ver
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
// It takes the write lock: a table whose ring still covers base
// assembles its delta by walking only the entries above base — cost
// proportional to the change rate — into a candidate list the table
// owns, and only a base older than the ring's floor pays the
// historical full-table scan.
func (db *DB) ChangedSinceAt(base uint64, sys *status.SysDelta, net *status.NetDelta, sec *status.SecDelta) (ver, epoch uint64, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if base < db.tombFloor || base > db.ver {
		return db.ver, db.epoch, false
	}
	db.sys.changedSince(base, sys)
	db.net.changedSince(base, net)
	db.sec.changedSince(base, sec)
	return db.ver, db.epoch, true
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
	db.sysMoved(applyDelta(&db.sys, db.clock(), changed, deleted, refreshed, byHost[SysRecord]))
}

// ApplyNetDelta merges one decoded net delta into the table.
func (db *DB) ApplyNetDelta(changed []status.NetMetric, deleted, refreshed []status.NetKeyView) {
	db.mu.Lock()
	defer db.mu.Unlock()
	applyDelta(&db.net, db.clock(), changed, deleted, refreshed, byPair)
}

// ApplySecDelta merges one decoded sec delta into the table.
func (db *DB) ApplySecDelta(changed []status.SecLevel, deleted, refreshed [][]byte) {
	db.mu.Lock()
	defer db.mu.Unlock()
	applyDelta(&db.sec, db.clock(), changed, deleted, refreshed, byHost[SecRecord])
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
	db.sysMoved(applyDelta(&db.sys, now, sys, nil, nil, byHost[SysRecord]))
	applyDelta(&db.net, now, net, nil, nil, byPair)
	applyDelta(&db.sec, now, sec, nil, nil, byHost[SecRecord])
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
		db.sys.load(sys, now)
		db.sysMoved(true, false)
	}
	if net != nil {
		db.net.load(net, now)
	}
	if sec != nil {
		db.sec.load(sec, now)
	}
}
