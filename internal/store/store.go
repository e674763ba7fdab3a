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
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// SysSnapshot is an epoch-versioned view of the server status table.
// Writers publish a new snapshot when the table mutates; readers pin
// the current one with two atomic loads and an add, so the selection
// hot path evaluates candidates without copying the table or holding
// any lock. Records are sorted by host and held in fixed-size pages
// that successive snapshots share. A pinned snapshot never changes; a
// rebuild may write the last one built in place once no reader holds
// it, and only the pages and leaves that snapshot made itself.
type SysSnapshot struct {
	// Epoch increments on every content mutation of the sys table:
	// two snapshots with the same epoch hold the same hosts with the
	// same status values. A same-content refresh re-stamps UpdatedAt
	// without advancing the epoch, so selection memoized against an
	// epoch stays valid across idle probe ticks.
	Epoch uint64
	n     int
	// ver is the database version the snapshot reflects: the changelog
	// entries above it name the hosts a successor must re-read.
	ver     uint64
	members uint64 // see Members: from pageIDs, kept by a patched successor
	// root is the page table, in the header so a rebuild copies it with
	// the header: page p at root[p>>shift][p&(1<<shift-1)]. The n records
	// are in host order, SysPageLen to a page (the last may be short).
	shift uint
	root  [pageLeaves][]pageRef
	// pins counts the readers holding the snapshot (PinSys, SysView).
	pins atomic.Int64
	// The pages with an ID above firstID, and the leaves set in leaves,
	// are the snapshot's own: no other snapshot was built holding them.
	firstID, leaves uint64
}

// pageLeaves is the page table's fan-out: a rebuild after one report
// copies at most the header (1.6 KB), one leaf and one page, not the table.
const pageLeaves = 64

// pageRef is a page table entry. A page written in place takes a new ID
// and IDs never repeat, so an ID seen again is the same records in the
// same place.
type pageRef struct {
	page *SysPage
	id   uint64
}

// pageIDs numbers the pages rebuilds create; an ID only has to be unique.
var pageIDs atomic.Uint64

// SysPageLen is the records per snapshot page. A rebuild after a report
// copies one page, and a selection merges one memoised list a page,
// which pull opposite ways; the sweep in DESIGN.md ("Wizard fast path")
// keeps 70, a 13 KB page.
const SysPageLen = 70

// SysPage is one snapshot page, struct-of-arrays: an array per raw
// ServerStatus field (numbers in status.Fields order, memory kept
// uint64) and stamp field, so a page gives back exactly the record put.
// Only the name block, which a clone shares, is behind a pointer.
type SysPage struct {
	names       *sysNames
	sharedNames bool // names is also the base's: copy it before a name changes
	n           int
	num         [17][SysPageLen]float64
	mem         [3][SysPageLen]uint64
	sec         [SysPageLen]int64 // UpdatedAt: Unix seconds and nanoseconds
	nsec        [SysPageLen]int32
	at          [SysPageLen]int64 // UpdatedAt as Offset gives it, for Before
	ver, refVer [SysPageLen]uint64
}

// sysNames is a page's host and interface names by offset.
type sysNames struct {
	host, iface [SysPageLen]string
}

// Len reports the number of records on the page.
func (p *SysPage) Len() int { return p.n }

// Host returns the host of the record at offset i.
func (p *SysPage) Host(i int) string { return p.names.host[i] }

// UpdatedAt returns the arrival time of the record at offset i, kept as
// Unix seconds and nanoseconds: in UTC, with no monotonic reading.
func (p *SysPage) UpdatedAt(i int) time.Time { return time.Unix(p.sec[i], int64(p.nsec[i])).UTC() }

// Before reports whether the record at offset i arrived before the
// instant whose Offset is cutoff.
func (p *SysPage) Before(i int, cutoff int64) bool { return p.at[i] < cutoff }

// anchor is the instant Offset counts from, with a monotonic reading.
var anchor = time.Now()

// Offset is t as a page orders arrivals: nanoseconds after anchor, on
// the monotonic clock when t has a reading (every stamp and cutoff from
// the real clock does; expiry compares those on it too), else on the
// wall clock; it saturates 292 years either side of anchor.
func Offset(t time.Time) int64 { return int64(t.Sub(anchor)) }

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
	p.sec[i], p.nsec[i] = r.UpdatedAt.Unix(), int32(r.UpdatedAt.Nanosecond())
	p.at[i] = Offset(r.UpdatedAt)
	p.ver[i], p.refVer[i] = r.Ver, r.RefVer
	if names := p.names; names.host[i] != r.Status.Host || names.iface[i] != r.Status.NetIface {
		if p.sharedNames {
			copied := *names
			p.names, p.sharedNames = &copied, false
		}
		p.names.host[i], p.names.iface[i] = r.Status.Host, r.Status.NetIface
	}
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
	r.Status.Host, r.Status.NetIface = p.names.host[i], p.names.iface[i]
	r.Stamp = Stamp{UpdatedAt: p.UpdatedAt(i), Ver: p.ver[i], RefVer: p.refVer[i]}
	return r
}

// Len reports the number of records in the snapshot.
func (s *SysSnapshot) Len() int { return s.n }

// Pages reports the number of pages: every one full but the last.
func (s *SysSnapshot) Pages() int { return (s.n + SysPageLen - 1) / SysPageLen }

// Page returns page p, 0 <= p < Pages(), whose first record is at
// p*SysPageLen, and its ID, read without touching the page.
func (s *SysSnapshot) Page(p int) (*SysPage, uint64) {
	ref := s.root[p>>s.shift][p&(1<<s.shift-1)]
	return ref.page, ref.id
}

// page returns the page holding position i.
func (s *SysSnapshot) page(i int) *SysPage {
	p, _ := s.Page(i / SysPageLen)
	return p
}

// At materialises the i-th record in host order, 0 <= i < Len().
func (s *SysSnapshot) At(i int) SysRecord { return s.page(i).record(i % SysPageLen) }

// Host returns the host of the i-th record, 0 <= i < Len().
func (s *SysSnapshot) Host(i int) string { return s.page(i).Host(i % SysPageLen) }

// Each calls fn on every record in host order, materialised into one
// reused record: the full-table walk.
func (s *SysSnapshot) Each(fn func(i int, r *SysRecord)) {
	var r SysRecord
	for i := 0; i < s.n; i++ {
		r = s.At(i)
		fn(i, &r)
	}
}

// Members identifies the snapshot's hosts: two snapshots with equal
// Members hold the same hosts at the same positions.
func (s *SysSnapshot) Members() uint64 { return s.members }

// Find returns the position of host, or of the first host after it.
func (s *SysSnapshot) Find(host string) (i int, found bool) {
	i = sort.Search(s.n, func(j int) bool { return s.Host(j) >= host })
	return i, i < s.n && s.Host(i) == host
}

// pager cuts records, in order, into freshly allocated pages.
type pager []pageRef

func (pg *pager) add(r *SysRecord) {
	if len(*pg) == 0 || (*pg)[len(*pg)-1].page.n == SysPageLen {
		*pg = append(*pg, pageRef{&SysPage{names: new(sysNames)}, pageIDs.Add(1)})
	}
	p := (*pg)[len(*pg)-1].page
	p.set(p.n, r)
	p.n++
}

// snapshot roots the pages in a new header: leaves of the fewest
// entries that hold them all, and at least eight, so that the reports
// between two requests on a small table mostly dirty one leaf.
func (pg pager) snapshot() *SysSnapshot {
	s := &SysSnapshot{shift: 3, members: pageIDs.Add(1), leaves: ^uint64(0)}
	for len(pg) > pageLeaves<<s.shift {
		s.shift++
	}
	for l := 0; len(pg) > 0; l++ {
		k := min(len(pg), 1<<s.shift)
		s.root[l], pg = pg[:k:k], pg[k:]
	}
	return s
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
	// rebuild serialises rebuilds, which run under the read lock.
	rebuild sync.Mutex
	// sysBase is the last snapshot built, kept past its invalidation:
	// the next rebuild patches it and re-reads only the hosts the
	// changelog names since (see sysViewRLocked). Guarded by rebuild.
	sysBase *SysSnapshot
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

// SysView returns the current snapshot of the server table pinned for
// good: it never changes and callers may share and keep it, but the
// rebuild after the next write copies what it changes (see PinSys).
func (db *DB) SysView() *SysSnapshot { return db.PinSys() }

// PinSys returns the current snapshot of the server table, pinned: it
// reads the same until Unpin, after which the caller must not touch
// it. The hot path is two atomic loads and an add; after a mutation
// the snapshot is rebuilt lazily under the read lock, in place when no
// reader holds the previous one.
//
// A pin counts itself, then checks that the snapshot is still the
// published one. A rebuild looks at the pins only after a writer has
// unpublished its base, so either the check fails (and the pin is
// undone) or the rebuild sees the pin. The check may find the same
// header rebuilt and published again; nothing was read from it before.
func (db *DB) PinSys() *SysSnapshot {
	if s := db.sysSnap.Load(); s != nil {
		if s.pins.Add(1); db.sysSnap.Load() == s {
			return s
		}
		s.Unpin()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.sysViewRLocked()
	s.pins.Add(1) // published: only a writer, whom the lock excludes, unpublishes it
	return s
}

// Unpin releases a snapshot PinSys returned.
func (s *SysSnapshot) Unpin() { s.pins.Add(-1) }

// sysViewRLocked returns the current snapshot, rebuilding it when a
// mutation invalidated it. Callers hold db.mu at least for reading:
// writers are excluded, so a non-nil cached snapshot is current, and
// rebuilders take turns on db.rebuild, so one builds and the rest find
// its snapshot published.
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
	db.rebuild.Lock()
	defer db.rebuild.Unlock()
	if s := db.sysSnap.Load(); s != nil {
		return s
	}
	s, ok := db.patchedSysLocked(db.sysBase)
	if !ok {
		pg := make(pager, 0, (len(db.sys.live)+SysPageLen-1)/SysPageLen)
		for _, host := range db.sys.sortedKeys() {
			pg.add(db.sys.live[host])
		}
		s = pg.snapshot()
	}
	s.Epoch, s.n, s.ver = db.epoch, len(db.sys.live), db.ver
	db.sysSnap.Store(s)
	db.sysBase = s
	return s
}

// patchedSysLocked derives the current pages from base and the
// changelog: every sys mutation since base.ver — put, refresh, expiry,
// delta apply, merge — left a ring entry naming its host. While those
// hosts are all in base and still in the table, positions stand: the
// result is base with only the pages holding such a host overwritten.
// No reader holds an unpinned base, so it is the result, and its own
// pages and leaves are written in place; a pinned one is copied into a
// new header. A page or leaf another snapshot holds is copied first,
// and every page written takes a new ID; the rest are shared. A host
// that joined or left shifts every position after it, so then the
// records are copied across in runs around the re-read hosts and cut
// into new pages. It declines (ok false) when the ring no longer
// reaches back to base.
func (db *DB) patchedSysLocked(base *SysSnapshot) (s *SysSnapshot, ok bool) {
	if !db.patchable(base) {
		return nil, false
	}
	// A few reports between two requests is the common case, and fits
	// the stack.
	dirty, at := db.sys.ringKeys(base.ver, make([]string, 0, 16)), make([]int, 0, 16)
	for _, host := range dirty {
		i, found := base.Find(host)
		if _, live := db.sys.live[host]; !found || !live {
			return db.respliceSysLocked(base, dirty), true
		}
		at = append(at, i)
	}
	s = base
	if base.pins.Load() > 0 {
		s = &SysSnapshot{members: base.members, shift: base.shift, root: base.root, firstID: pageIDs.Load()}
	}
	owned := -1 // the page last made s's own: dirty is sorted, so pages come in order
	for k, host := range dirty {
		if p := at[k] / SysPageLen; p != owned {
			s.own(p)
			owned = p
		}
		s.page(at[k]).set(at[k]%SysPageLen, db.sys.live[host])
	}
	return s, true
}

// patchable reports whether the changelog still reaches back to base.
func (db *DB) patchable(base *SysSnapshot) bool {
	return base != nil && base.ver >= db.sys.logFloor && base.ver <= db.ver
}

// own gives page p a new ID, first copying it and its leaf unless s made
// them: a copy is a byte copy, its name block shared until a name changes.
func (s *SysSnapshot) own(p int) {
	l := p >> s.shift
	if s.leaves&(1<<l) == 0 {
		s.root[l], s.leaves = slices.Clone(s.root[l]), s.leaves|1<<l
	}
	ref := &s.root[l][p&(1<<s.shift-1)]
	if ref.id <= s.firstID {
		clone := *ref.page
		clone.sharedNames = true
		ref.page = &clone
	}
	ref.id = pageIDs.Add(1)
}

// respliceSysLocked is the patch after a membership change: base's
// records in runs, with each dirty host dropped and, if it is still in
// the table, re-read in its place.
func (db *DB) respliceSysLocked(base *SysSnapshot, dirty []string) *SysSnapshot {
	pg := make(pager, 0, (len(db.sys.live)+SysPageLen-1)/SysPageLen)
	from := 0
	for _, host := range dirty {
		at, found := base.Find(host)
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
	return pg.snapshot()
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
	snap.pins.Add(1) // for good, as SysView
	return snap, db.sec.records(), db.ver, db.epoch
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

// SysNames runs fn with the sys table as a status.Names under one read
// lock, for a batch's decode. fn must not call back into db.
func (db *DB) SysNames(fn func(status.Names)) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	fn(hostNames(db.sys.live))
}

// hostNames looks a host up by its bytes; m[string(b)] does not allocate.
type hostNames map[string]*SysRecord

func (m hostNames) Name(b []byte) (string, bool) {
	if r, ok := m[string(b)]; ok {
		return r.Status.Host, true
	}
	return "", false
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
	cutoff := int64(math.MinInt64) // nothing is before it
	if maxAge > 0 {
		cutoff = Offset(db.Now().Add(-maxAge))
	}
	out := make([]SysRecord, 0, snap.n)
	snap.Each(func(i int, r *SysRecord) {
		if !snap.page(i).Before(i%SysPageLen, cutoff) {
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
// to prove their candidate sets match a snapshot; a nil net delta skips its table.
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
	if net != nil {
		db.net.changedSince(base, net)
	}
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
