package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"smartsock/internal/status"
)

// SysView rebuilds a snapshot by patching the previous one with the
// hosts the changelog names. The invariant: whatever the writers did
// in between — and whichever of the two rebuild routes ran — the
// snapshot is deep-equal to the table collected and sorted afresh.

// scratchSys is the reference rebuild: the whole table, sorted.
func scratchSys(db *DB) *SysSnapshot {
	db.mu.RLock()
	defer db.mu.RUnlock()
	recs := make([]SysRecord, 0, len(db.sys))
	for _, r := range db.sys {
		recs = append(recs, *r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Status.Host < recs[j].Status.Host })
	return &SysSnapshot{Epoch: db.epoch, Records: recs, ver: db.ver}
}

// willPatch reports which route the next rebuild takes.
func willPatch(db *DB) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.patchedSysLocked(db.sysBase.Load())
	return ok
}

func checkView(db *DB) error {
	want := scratchSys(db)
	if got := db.SysView(); got.Epoch != want.Epoch || !reflect.DeepEqual(got.Records, want.Records) {
		return fmt.Errorf("snapshot (epoch %d, %d records) differs from a rebuild from scratch (epoch %d, %d records)",
			got.Epoch, len(got.Records), want.Epoch, len(want.Records))
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

// runViewOps replays one op sequence, comparing every view against
// the reference, and reports how many rebuilds took each route.
func runViewOps(ops []propOp) (patched, scratch int, err error) {
	now := time.Unix(1_700_000_000, 0)
	db := NewWithClock(func() time.Time { return now })
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
		case vView:
			if db.sysSnap.Load() == nil {
				if willPatch(db) {
					patched++
				} else {
					scratch++
				}
			}
			if err := checkView(db); err != nil {
				return patched, scratch, fmt.Errorf("op %d %v: %w", i, op, err)
			}
		}
	}
	return patched, scratch, nil
}

func TestSysViewPatchProperty(t *testing.T) {
	run := func(ops []propOp) error { _, _, err := runViewOps(ops); return err }
	patched, scratch := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		ops := genViewOps(rand.New(rand.NewSource(seed)), 80)
		p, s, err := runViewOps(ops)
		if err != nil {
			minimal := shrink(ops, run)
			t.Logf("seed %d minimal failing sequence (%d of %d ops): %v", seed, len(minimal), len(ops), minimal)
			t.Fatalf("seed %d: %v", seed, err)
		}
		patched, scratch = patched+p, scratch+s
	}
	if patched == 0 || scratch == 0 {
		t.Fatalf("%d patched and %d from-scratch rebuilds: the suite must exercise both routes", patched, scratch)
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
	for i := 0; i < changeLogCap+1; i++ {
		put(i, 1)
	}
	if willPatch(db) {
		t.Fatalf("rebuild would patch a base %d mutations old; the ring holds %d", changeLogCap+1, changeLogCap)
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
	if n := len(db.SysView().Records); n != fleet-1 {
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
				for i := 1; i < len(snap.Records); i++ {
					if snap.Records[i-1].Status.Host >= snap.Records[i].Status.Host {
						t.Errorf("snapshot out of order at %d: %q then %q", i, snap.Records[i-1].Status.Host, snap.Records[i].Status.Host)
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
