package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"smartsock/internal/status"
)

// SysView rebuilds a snapshot by patching the previous one with the
// hosts the changelog names. The invariant: whatever the writers did
// in between — and whichever of the rebuild routes ran (pages patched
// in place, records respliced after a membership change, the table
// collected afresh) — the snapshot holds exactly the table collected
// and sorted afresh, in full pages but the last.

// refs lists a snapshot's page table in page order.
func refs(s *SysSnapshot) (out []pageRef) {
	for _, leaf := range s.root {
		out = append(out, leaf...)
	}
	return out
}

// flat copies a snapshot's records out in order.
func flat(s *SysSnapshot) (recs []SysRecord) {
	s.Each(func(_ int, r *SysRecord) { recs = append(recs, *r) })
	return recs
}

// scratchSys is the reference rebuild: the whole table, sorted.
func scratchSys(db *DB) (epoch uint64, recs []SysRecord) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, r := range db.sys.live {
		recs = append(recs, *r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Status.Host < recs[j].Status.Host })
	return db.epoch, recs
}

// willPatch reports which route the next rebuild takes, writing nothing.
func willPatch(db *DB) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.rebuild.Lock()
	defer db.rebuild.Unlock()
	return db.patchable(db.sysBase)
}

// lastBuilt is the snapshot the next rebuild patches.
func lastBuilt(db *DB) *SysSnapshot {
	db.rebuild.Lock()
	defer db.rebuild.Unlock()
	return db.sysBase
}

func checkView(db *DB) error { return checkSnap(db, db.SysView()) }

// checkSnap holds got, the current snapshot, to the reference rebuild.
func checkSnap(db *DB, got *SysSnapshot) error {
	epoch, want := scratchSys(db)
	if got.Epoch != epoch || !sameRecords(flat(got), want) {
		return fmt.Errorf("snapshot (epoch %d, %d records) differs from a rebuild from scratch (epoch %d, %d records)",
			got.Epoch, got.Len(), epoch, len(want))
	}
	total, pages := 0, refs(got)
	for p, ref := range pages {
		if n := ref.page.n; n == 0 || n > SysPageLen || (n < SysPageLen && p != len(pages)-1) {
			return fmt.Errorf("page %d of %d holds %d records, a page holds %d", p, len(pages), n, SysPageLen)
		}
		total += ref.page.n
	}
	if total != got.Len() || len(pages) != got.Pages() {
		return fmt.Errorf("%d pages hold %d records, Len() is %d", len(pages), total, got.Len())
	}
	for l, leaf := range got.root {
		if len(leaf) > 1<<got.shift || l > 0 && len(leaf) > 0 && len(got.root[l-1]) < 1<<got.shift {
			return fmt.Errorf("leaf %d holds %d pages behind a leaf of %d, a leaf holds %d", l, len(leaf), len(got.root[max(l-1, 0)]), 1<<got.shift)
		}
	}
	return nil
}

// checkSharing holds a patched snapshot to the structure-sharing rule:
// with membership unchanged, a page none of whose records was written
// since base (every write re-stamps RefVer) is base's own page, and a
// page none of whose names changed holds base's own name block.
func checkSharing(base, got *SysSnapshot) error {
	if base == nil || base.n != got.n {
		return nil
	}
	for i := 0; i < got.n; i++ {
		if base.At(i).Status.Host != got.At(i).Status.Host {
			return nil
		}
	}
	was, now := refs(base), refs(got)
	for p := range now {
		b, g := was[p].page, now[p].page
		// A copy marks its name block shared: compare the bodies only.
		body := *b
		body.names, body.sharedNames = g.names, g.sharedNames
		if body == *g && b != g {
			return fmt.Errorf("page %d of %d was copied though nothing on it was written", p, len(now))
		}
		if renamed, copied := *b.names != *g.names, b.names != g.names; renamed != copied {
			return fmt.Errorf("page %d of %d: a name changed %t, the name block copied %t", p, len(now), renamed, copied)
		}
	}
	return nil
}

// checkInPlace holds a rebuild that wrote its base in place to the ID
// rule the page memo relies on: a page holding a record written since
// (every write re-stamps RefVer) has an ID no page of the base had, and
// every other page keeps its ID and its pointer.
func checkInPlace(was []pageRef, before []SysRecord, got *SysSnapshot) error {
	ids := map[uint64]bool{}
	for _, ref := range was {
		ids[ref.id] = true
	}
	now, after := refs(got), flat(got)
	if len(now) != len(was) || len(after) != len(before) {
		return fmt.Errorf("a rebuild in place went from %d records in %d pages to %d in %d", len(before), len(was), len(after), len(now))
	}
	for p := range now {
		lo, hi := p*SysPageLen, min((p+1)*SysPageLen, len(after))
		written := !slices.EqualFunc(before[lo:hi], after[lo:hi], func(a, b SysRecord) bool { return a.RefVer == b.RefVer })
		if written && ids[now[p].id] {
			return fmt.Errorf("page %d of %d was written in place but kept an ID of the base's, %d", p, len(now), now[p].id)
		}
		if !written && (now[p].id != was[p].id || now[p].page != was[p].page) {
			return fmt.Errorf("page %d of %d: nothing on it was written, but its ID went from %d to %d or its page moved", p, len(now), was[p].id, now[p].id)
		}
	}
	return nil
}

// Patch-suite op kinds, carried in propOp so the delta suite's
// shrinker serves both.
const (
	vPut propKind = iota
	vRefresh
	vExpire
	vApplyDelta
	vMerge
	vLoad
	vPutOther // net and sec writes share the ring with sys ones
	vIface    // a put that renames the host's interface: its page alone gets a new name block
	vView
	viewKinds
)

func genViewOps(rng *rand.Rand, n int) []propOp {
	ops := make([]propOp, 0, n+1)
	for i := 0; i < n; i++ {
		kind := propKind(rng.Intn(int(viewKinds)))
		if kind == vLoad && rng.Intn(4) > 0 {
			kind = vView // keep whole-table loads rare enough for patch chains to form
		}
		ops = append(ops, propOp{kind: kind, host: rng.Intn(propHosts), val: rng.Intn(5)})
	}
	return append(ops, propOp{kind: vView})
}

func hostKey(host int) []byte { return []byte(fmt.Sprintf("prop-%02d", host)) }

// padSys names a host that sorts between two of the op sequence's
// hosts, so a padded table spreads those over every page.
func padSys(i int) status.ServerStatus {
	return status.ServerStatus{Host: fmt.Sprintf("prop-%02d.%04d", i%propHosts, i/propHosts)}
}

// runViewOps replays one op sequence on a table that starts with pads
// other hosts, comparing every view against the reference, and reports
// how many rebuilds took each route. A view is taken through SysView,
// which keeps its snapshot pinned, or through PinSys and Unpin, which
// leaves it for the next rebuild to write in place: the op's value
// picks. Every snapshot SysView lent must read the same to the end.
func runViewOps(ops []propOp, pads int) (patched, inPlace, scratch int, err error) {
	var lent []*SysSnapshot
	var lentRecs [][]SysRecord
	now := time.Unix(1_700_000_000, 0)
	db := NewWithClock(func() time.Time { return now })
	// Pads report from the future: no expiry in the sequence takes them,
	// so only a Load brings the table back to one page.
	now = now.Add(24 * time.Hour)
	for i := 0; i < pads; i++ {
		db.PutSys(padSys(i))
	}
	now = now.Add(-24 * time.Hour)
	for i, op := range ops {
		now = now.Add(time.Second)
		h, v := op.host, op.val
		switch op.kind {
		case vPut:
			db.PutSys(propSys(h, v))
		case vRefresh:
			if r, ok := db.GetSys(fmt.Sprintf("prop-%02d", h)); ok {
				db.PutSys(r.Status)
			}
		case vExpire:
			db.ExpireSys(expireAge)
		case vApplyDelta:
			db.ApplySysDelta(
				[]status.ServerStatus{propSys(h, v), propSys((h+5)%propHosts, v+1)},
				[][]byte{hostKey((h + 1) % propHosts), hostKey((h + 2) % propHosts)},
				[][]byte{hostKey((h + 3) % propHosts)})
		case vMerge:
			db.Merge([]status.ServerStatus{propSys(h, v), propSys((h+4)%propHosts, v)},
				[]status.NetMetric{propNet(h, v)}, nil)
		case vLoad:
			db.Load([]status.ServerStatus{propSys(h, v), propSys((h+1)%propHosts, v)}, nil, nil)
		case vPutOther:
			db.PutNet(propNet(h, v))
			db.PutSec(propSec(h, v))
		case vIface:
			s := propSys(h, v)
			s.NetIface = fmt.Sprintf("eth%d", v%2)
			db.PutSys(s)
		case vView:
			base, before, was := lastBuilt(db), []SysRecord(nil), []pageRef(nil)
			if base != nil {
				before, was = flat(base), refs(base)
			}
			held := base != nil && base.pins.Load() > 0
			patch, rebuilt, pin := willPatch(db), db.sysSnap.Load() == nil, v%2 == 0
			var got *SysSnapshot
			if pin {
				got = db.PinSys()
			} else {
				got = db.SysView()
			}
			if rebuilt {
				switch {
				case !patch:
					scratch++
				case got == base:
					inPlace++
				default:
					patched++
				}
			}
			err := checkSnap(db, got)
			if err == nil && rebuilt && got == base {
				if err = checkInPlace(was, before, got); err == nil && held {
					err = fmt.Errorf("a rebuild wrote a base a reader holds")
				}
			} else if err == nil && patch {
				err = checkSharing(base, got)
			}
			if err == nil && base != nil && got != base && !slices.Equal(flat(base), before) {
				err = fmt.Errorf("the base snapshot changed under a rebuild that did not reuse it")
			}
			for k := 0; err == nil && k < len(lent); k++ {
				if !slices.Equal(flat(lent[k]), lentRecs[k]) {
					err = fmt.Errorf("the snapshot SysView lent at view %d changed", k)
				}
			}
			if pin {
				got.Unpin()
			} else {
				lent, lentRecs = append(lent, got), append(lentRecs, flat(got))
			}
			if err != nil {
				return patched, inPlace, scratch, fmt.Errorf("op %d %v: %w", i, op, err)
			}
		}
	}
	return patched, inPlace, scratch, nil
}

// TestSysViewPatchProperty runs the random histories on a one-page
// table and on one of three pages and a bit.
func TestSysViewPatchProperty(t *testing.T) {
	for _, pads := range []int{0, 3*SysPageLen + 7} {
		run := func(ops []propOp) error { _, _, _, err := runViewOps(ops, pads); return err }
		patched, inPlace, scratch := 0, 0, 0
		for seed := int64(0); seed < 200; seed++ {
			ops := genViewOps(rand.New(rand.NewSource(seed)), 80)
			p, r, s, err := runViewOps(ops, pads)
			if err != nil {
				minimal := shrink(ops, run)
				t.Logf("%d pads, seed %d minimal failing sequence (%d of %d ops): %v", pads, seed, len(minimal), len(ops), minimal)
				t.Fatalf("%d pads, seed %d: %v", pads, seed, err)
			}
			patched, inPlace, scratch = patched+p, inPlace+r, scratch+s
		}
		if patched == 0 || scratch == 0 {
			t.Fatalf("%d pads: %d patched and %d from-scratch rebuilds: the suite must exercise both routes", pads, patched, scratch)
		}
		if inPlace == 0 {
			t.Fatalf("%d pads: no rebuild wrote its base in place (%d copied it): the suite must exercise the reuse route", pads, patched)
		}
		t.Logf("%d pads: %d rebuilds in place, %d patched into copies, %d from scratch", pads, inPlace, patched, scratch)
	}
}

// TestSysViewPageBoundaries takes tables of sizes around the page
// length through every rebuild route: from scratch, writes to the
// first, middle and last host (patched in place, the other pages
// shared), a host joining at either end and leaving again.
func TestSysViewPageBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, SysPageLen - 1, SysPageLen, SysPageLen + 1, 3*SysPageLen + 7} {
		db := New()
		name := func(i int) string { return fmt.Sprintf("edge-%05d", i) }
		for i := 0; i < n; i++ {
			db.PutSys(status.ServerStatus{Host: name(i)})
		}
		step := func(what string, mutate func()) {
			t.Helper()
			base := db.SysView()
			mutate()
			if !willPatch(db) {
				t.Fatalf("%d hosts, %s: rebuild would not patch", n, what)
			}
			err := checkView(db)
			if err == nil {
				err = checkSharing(base, db.SysView())
			}
			if err != nil {
				t.Fatalf("%d hosts, %s: %v", n, what, err)
			}
		}
		if err := checkView(db); err != nil {
			t.Fatalf("%d hosts, from scratch: %v", n, err)
		}
		if n > 0 {
			step("writes in place", func() {
				for _, i := range []int{0, n / 2, n - 1} {
					db.PutSys(status.ServerStatus{Host: name(i), Load1: 1})
				}
			})
			if got, want := len(refs(db.SysView())), (n+SysPageLen-1)/SysPageLen; got != want {
				t.Fatalf("%d hosts in %d pages, want %d", n, got, want)
			}
		}
		step("a host joins in front", func() { db.PutSys(status.ServerStatus{Host: "a-first"}) })
		step("a host joins behind", func() { db.PutSys(status.ServerStatus{Host: "z-last"}) })
		step("both leave", func() { db.ApplySysDelta(nil, [][]byte{[]byte("a-first"), []byte("z-last")}, nil) })
		if got := db.SysView().Len(); got != n {
			t.Fatalf("%d hosts after a round trip from %d", got, n)
		}
	}
}

// TestSysViewSharesCleanPages pins the point of the pages: after
// writes to known hosts the new snapshot holds the base's own page
// wherever no written host lives, a copy where one does, the base's
// name block on every page where no name changed, and the base still
// reads what it read before.
func TestSysViewSharesCleanPages(t *testing.T) {
	const fleet = 5*SysPageLen + 3
	db := New()
	for i := 0; i < fleet; i++ {
		db.PutSys(status.ServerStatus{Host: fmt.Sprintf("share-%05d", i)})
	}
	base := db.SysView()
	before := flat(base)
	dirty := map[int]bool{}
	for _, i := range []int{3, SysPageLen - 1, 2 * SysPageLen, 2*SysPageLen + 9, fleet - 1} {
		db.PutSys(status.ServerStatus{Host: fmt.Sprintf("share-%05d", i), Load1: 2})
		dirty[i/SysPageLen] = true
	}
	db.PutSys(status.ServerStatus{Host: "share-00100"}) // a same-content refresh dirties its page too
	dirty[100/SysPageLen] = true
	db.PutSys(status.ServerStatus{Host: "share-00300", NetIface: "eth1"}) // a new interface name: a new name block
	renamed := 300 / SysPageLen
	dirty[renamed] = true
	got := db.SysView()
	if err := checkView(db); err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]bool{}
	for _, ref := range refs(base) {
		ids[ref.id] = true
	}
	was, now := refs(base), refs(got)
	for p := range now {
		if shared := now[p].page == was[p].page; shared == dirty[p] {
			t.Errorf("page %d: shared with the base %v, holds a written host %v", p, shared, dirty[p])
		}
		if shared := now[p].page.names == was[p].page.names; shared == (p == renamed) {
			t.Errorf("page %d: name block shared with the base %v, a name changed %v", p, shared, p == renamed)
		}
		// A copy is a new page: its ID is one no page had before.
		if id := now[p].id; ids[id] != !dirty[p] || id == 0 {
			t.Errorf("page %d: ID %d, written %v, the base's IDs %v", p, id, dirty[p], ids)
		}
	}
	if !slices.Equal(flat(base), before) {
		t.Error("the base snapshot changed under a rebuild")
	}
}

// TestSysViewHeldSnapshotKeepsItsValues holds one snapshot across a
// thousand writes and rebuilds while readers walk it: under the race
// detector a write into a published page is a reported race, and at
// the end the held snapshot must read exactly what it read at first.
func TestSysViewHeldSnapshotKeepsItsValues(t *testing.T) {
	const fleet = 3*SysPageLen + 7
	db := New()
	for i := 0; i < fleet; i++ {
		db.PutSys(propSys(i, 0))
	}
	held := db.SysView()
	want := flat(held)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, snap := range []*SysSnapshot{held, db.SysView()} {
					prev := ""
					snap.Each(func(i int, r *SysRecord) {
						if r.Status.Host <= prev {
							t.Errorf("snapshot out of order at %d: %q then %q", i, prev, r.Status.Host)
						}
						prev = r.Status.Host
					})
				}
				runtime.Gosched()
			}
		}()
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		db.PutSys(propSys(rng.Intn(fleet), 1+i%4))
		db.SysView()
	}
	close(done)
	wg.Wait()
	if !slices.Equal(flat(held), want) {
		t.Error("a snapshot held across 1000 writes no longer reads its own values")
	}
	if err := checkView(db); err != nil {
		t.Fatal(err)
	}
}

// TestPinSysReadersRaceRebuilds races the reuse route: a writer puts
// hosts, pinned readers sum every page's column and ID twice and
// compare, and pin-and-release loops force the rebuilds in between. A
// rebuild that writes a snapshot a reader has pinned is a reported race
// under the race detector, and two sums that may differ without it.
func TestPinSysReadersRaceRebuilds(t *testing.T) {
	const fleet = 3*SysPageLen + 7
	db := New()
	for i := 0; i < fleet; i++ {
		db.PutSys(propSys(i, 0))
	}
	load1, mem := status.VarIndex("host_system_load1"), status.VarIndex("host_memory_free")
	sum := func(s *SysSnapshot) (total float64, ids uint64) {
		var buf [SysPageLen]float64
		for p := range s.Pages() {
			page, id := s.Page(p)
			for _, v := range page.Column(load1, &buf) {
				total += v
			}
			for _, v := range page.Column(mem, &buf) {
				total += v
			}
			ids += id
		}
		return total, ids
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(body func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				body()
				runtime.Gosched()
			}
		}()
	}
	for r := 0; r < 3; r++ {
		loop(func() {
			snap := db.PinSys()
			defer snap.Unpin()
			total, ids := sum(snap)
			runtime.Gosched()
			if again, againIDs := sum(snap); again != total || againIDs != ids {
				t.Errorf("a pinned snapshot read %v (IDs %d), then %v (IDs %d)", total, ids, again, againIDs)
			}
		})
	}
	for r := 0; r < 2; r++ {
		loop(func() { db.PinSys().Unpin() })
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		db.PutSys(propSys(rng.Intn(fleet), 1+i%4))
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	if err := checkView(db); err != nil {
		t.Fatal(err)
	}
}

// fleetDB is a database of fleet hosts and the reports that rewrite
// them one by one, so a measured put formats nothing. Its snapshot is
// built from scratch and released: every page in it is its own.
func fleetDB(fleet int) (*DB, []status.ServerStatus) {
	db := New()
	for i := 0; i < fleet; i++ {
		db.PutSys(propSys(i, 0))
	}
	db.PinSys().Unpin()
	reports := make([]status.ServerStatus, 64)
	for i := range reports {
		reports[i] = propSys(i*397%fleet, 1+i)
	}
	return db, reports
}

// TestSysViewRebuildAllocBytes pins what a report costs the next
// request on a large fleet: the snapshot header with the page table's
// root in it, the one leaf and the one page the host lives on, not the
// table.
func TestSysViewRebuildAllocBytes(t *testing.T) {
	const fleet = 20000
	db, reports := fleetDB(fleet)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range reports {
		db.PutSys(reports[i])
		db.SysView()
	}
	runtime.ReadMemStats(&after)
	perRebuild := (after.TotalAlloc - before.TotalAlloc) / uint64(len(reports))
	leaf := uintptr(1<<db.SysView().shift) * unsafe.Sizeof(pageRef{})
	// Each rounded up to its allocation class, which wastes under an eighth of it.
	limit := uint64(unsafe.Sizeof(SysSnapshot{})+leaf+unsafe.Sizeof(SysPage{})) * 8 / 7
	if perRebuild > limit {
		t.Errorf("rebuild after one PutSys on %d hosts allocated %d bytes, want at most a header, a leaf and a page (%d)", fleet, perRebuild, limit)
	}
}

// TestSysViewRebuildAllocs: one put, then SysView, is three allocations
// however large the fleet — the header, a leaf, a page.
func TestSysViewRebuildAllocs(t *testing.T) {
	fleets := []int{20000, 1000000}
	if testing.Short() {
		fleets = fleets[:1] // a million hosts hold about 600 MB
	}
	for _, fleet := range fleets {
		db, reports := fleetDB(fleet)
		i := 0
		if got := testing.AllocsPerRun(50, func() {
			i++
			db.PutSys(reports[i%len(reports)])
			db.SysView()
		}); got != 3 {
			t.Errorf("%d hosts: one put and SysView made %v allocations, want 3", fleet, got)
		}
	}
}

// TestPinSysRebuildAllocs: one put, then a pin and its release, costs
// nothing however large the fleet — the rebuild writes the snapshot
// nobody holds, and the page it made, in place.
func TestPinSysRebuildAllocs(t *testing.T) {
	fleets := []int{20000, 1000000}
	if testing.Short() {
		fleets = fleets[:1] // a million hosts hold about 600 MB
	}
	for _, fleet := range fleets {
		db, reports := fleetDB(fleet)
		i := 0
		if got := testing.AllocsPerRun(50, func() {
			i++
			db.PutSys(reports[i%len(reports)])
			db.PinSys().Unpin()
		}); got != 0 {
			t.Errorf("%d hosts: one put, then a pin and its release, made %v allocations, want 0", fleet, got)
		}
	}
}

// BenchmarkSysViewRebuild is the cost a request pays for the report
// that landed before it: one PutSys of a known host, then SysView.
func BenchmarkSysViewRebuild(b *testing.B) {
	for _, fleet := range []int{20000, 100000, 1000000} {
		b.Run(fmt.Sprintf("hosts=%d", fleet), func(b *testing.B) {
			db := New()
			for i := 0; i < fleet; i++ {
				db.PutSys(propSys(i, 0))
			}
			db.SysView()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.PutSys(propSys(i*397%fleet, 1+i))
				db.SysView()
			}
		})
	}
}

// TestSysViewFallsBackPastTheRing writes more than the changelog
// retains between two views: the base is no longer covered, the
// rebuild must collect the table afresh, and the next one patches
// again.
func TestSysViewFallsBackPastTheRing(t *testing.T) {
	db := New()
	const fleet = 6000
	put := func(i, v int) {
		db.PutSys(status.ServerStatus{Host: fmt.Sprintf("ring-%05d", i), Load1: float64(v)})
	}
	for i := 0; i < fleet; i++ {
		put(i, 0)
	}
	if err := checkView(db); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ChangeLogCap+1; i++ {
		put(i, 1)
	}
	if willPatch(db) {
		t.Fatalf("rebuild would patch a base %d mutations old; the ring holds %d", ChangeLogCap+1, ChangeLogCap)
	}
	if err := checkView(db); err != nil {
		t.Fatal(err)
	}
	put(7, 2)
	put(fleet, 3)
	db.ApplySysDelta(nil, [][]byte{[]byte("ring-00000"), []byte("ring-05999")}, [][]byte{[]byte("ring-00001")})
	if !willPatch(db) {
		t.Fatal("rebuild would not patch a base the ring covers")
	}
	if err := checkView(db); err != nil {
		t.Fatal(err)
	}
	if n := db.SysView().Len(); n != fleet-1 {
		t.Fatalf("%d records after one insert and two deletes on %d", n, fleet)
	}
}

// TestSysViewPatchChurn runs readers against writers of every kind
// under the race detector: each snapshot a reader sees must be sorted
// and duplicate-free with epochs that never go back, and the final
// one must equal the reference.
func TestSysViewPatchChurn(t *testing.T) {
	db := New()
	for i := 0; i < 200; i++ {
		db.PutSys(propSys(i, 0))
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				h, v := rng.Intn(220), rng.Intn(5)
				switch rng.Intn(12) {
				case 0:
					db.ApplySysDelta([]status.ServerStatus{propSys(h, v)}, [][]byte{hostKey((h + 1) % 220)}, [][]byte{hostKey((h + 2) % 220)})
				case 1:
					db.Merge([]status.ServerStatus{propSys(h, v)}, nil, nil)
				case 2:
					if i%500 == 0 {
						db.Load([]status.ServerStatus{propSys(h, v)}, nil, nil)
					}
				case 3:
					db.ExpireSys(time.Hour)
				default:
					db.PutSys(propSys(h, v))
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var epoch uint64
			for i := 0; i < 2000; i++ {
				// Yield between views: a reader spinning through its
				// time slice starves the writers it is meant to race.
				runtime.Gosched()
				snap := db.SysView()
				if snap.Epoch < epoch {
					t.Errorf("epoch went back from %d to %d", epoch, snap.Epoch)
					return
				}
				epoch = snap.Epoch
				for i := 1; i < snap.Len(); i++ {
					if snap.At(i-1).Status.Host >= snap.At(i).Status.Host {
						t.Errorf("snapshot out of order at %d: %q then %q", i, snap.At(i-1).Status.Host, snap.At(i).Status.Host)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := checkView(db); err != nil {
		t.Fatal(err)
	}
}

// TestPutSysSteadyStateAllocs pins the write path the snapshot patch
// rides on: it derives its dirty set from the changelog ring, so a
// report for a known host — refreshed or changed — allocates nothing,
// with or without views in between.
func TestPutSysSteadyStateAllocs(t *testing.T) {
	db := New()
	var reports [64 * 7]status.ServerStatus
	for i := range reports {
		reports[i] = propSys(i%64, i%7)
		db.PutSys(reports[i])
	}
	db.SysView()
	i := 0
	if got := testing.AllocsPerRun(500, func() {
		i++
		db.PutSys(reports[i%len(reports)])
		if i%100 == 0 {
			db.SysView()
		}
	}); got > 0.5 {
		t.Errorf("PutSys of a known host: %v allocs, want 0", got)
	}
}
