package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"smartsock/internal/status"
)

// scanChangedSince computes a delta through the historical full-table
// classification, bypassing the changelog ring, so tests can assert
// the ring-served path returns exactly the same answer.
func (db *DB) scanChangedSince(base uint64, sys *status.SysDelta, net *status.NetDelta, sec *status.SecDelta) (uint64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if base < db.tombFloor || base > db.ver {
		return db.ver, false
	}
	sys.Reset(base, db.ver)
	net.Reset(base, db.ver)
	sec.Reset(base, db.ver)
	if base == db.ver {
		return db.ver, true
	}
	db.sys.classify(base, db.sys.scanKeys(base, nil), sys)
	db.net.classify(base, db.net.scanKeys(base, nil), net)
	db.sec.classify(base, db.sec.scanKeys(base, nil), sec)
	return db.ver, true
}

// mutateRandomly applies one random mutation drawn from the full op
// vocabulary: puts, same-content refreshes, expiries across all three
// tables.
func mutateRandomly(t *testing.T, db *DB, rng *rand.Rand, clock *time.Time) {
	t.Helper()
	*clock = clock.Add(time.Second)
	host := fmt.Sprintf("ring-%02d", rng.Intn(16))
	switch rng.Intn(8) {
	case 0, 1:
		db.PutSys(status.ServerStatus{Host: host, Load1: float64(rng.Intn(4))})
	case 2:
		if r, ok := db.GetSys(host); ok {
			db.PutSys(r.Status) // refresh path
		} else {
			db.PutSys(status.ServerStatus{Host: host})
		}
	case 3:
		db.PutNet(status.NetMetric{From: "mon-a", To: host, Delay: time.Duration(rng.Intn(5)) * time.Millisecond})
	case 4:
		db.PutSec(status.SecLevel{Host: host, Level: rng.Intn(5)})
	case 5:
		db.ExpireSys(4 * time.Second)
	case 6:
		db.ExpireNet(4 * time.Second)
	case 7:
		db.ExpireSec(4 * time.Second)
	}
}

// TestChangedSinceLogMatchesScan drives random mutations and, after
// each one, asks for deltas from several bases through both the
// ring-served path and the forced full scan. The answers must be
// identical structures.
func TestChangedSinceLogMatchesScan(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	db := NewWithClock(func() time.Time { return clock })
	rng := rand.New(rand.NewSource(42))
	var bases []uint64
	var ringSys, scanSys status.SysDelta
	var ringNet, scanNet status.NetDelta
	var ringSec, scanSec status.SecDelta
	for i := 0; i < 400; i++ {
		mutateRandomly(t, db, rng, &clock)
		bases = append(bases, db.Ver())
		// Probe a handful of historical bases plus the current version.
		for _, base := range []uint64{bases[rng.Intn(len(bases))], bases[len(bases)-1], db.Ver()} {
			ringVer, ringOK := db.ChangedSince(base, &ringSys, &ringNet, &ringSec)
			scanVer, scanOK := db.scanChangedSince(base, &scanSys, &scanNet, &scanSec)
			if ringVer != scanVer || ringOK != scanOK {
				t.Fatalf("op %d base %d: ring (ver=%d ok=%v) vs scan (ver=%d ok=%v)",
					i, base, ringVer, ringOK, scanVer, scanOK)
			}
			if !ringOK {
				continue
			}
			if !reflect.DeepEqual(ringSys, scanSys) {
				t.Fatalf("op %d base %d: sys delta diverged\nring: %+v\nscan: %+v", i, base, ringSys, scanSys)
			}
			if !reflect.DeepEqual(ringNet, scanNet) {
				t.Fatalf("op %d base %d: net delta diverged\nring: %+v\nscan: %+v", i, base, ringNet, scanNet)
			}
			if !reflect.DeepEqual(ringSec, scanSec) {
				t.Fatalf("op %d base %d: sec delta diverged\nring: %+v\nscan: %+v", i, base, ringSec, scanSec)
			}
		}
	}
}

// TestChangedSinceLogWraparound pushes more mutations than the ring
// holds: an old base must fall below the log floor (forcing the scan
// path) yet still produce a correct, servable delta, while a recent
// base stays ring-served.
func TestChangedSinceLogWraparound(t *testing.T) {
	db := New()
	db.PutSys(status.ServerStatus{Host: "w-old", Load1: 1})
	oldBase := db.Ver()
	// Wrap the ring several times over with refreshes of one host (no
	// tombstones, so the tombstone floor stays at zero and oldBase
	// remains servable).
	db.PutSys(status.ServerStatus{Host: "w-hot", Load1: 2})
	hot, _ := db.GetSys("w-hot")
	for i := 0; i < 3*ChangeLogCap; i++ {
		db.PutSys(hot.Status)
	}
	db.mu.Lock()
	floor := db.sys.logFloor
	db.mu.Unlock()
	if floor == 0 {
		t.Fatalf("log floor still 0 after %d mutations (cap %d)", 3*ChangeLogCap, ChangeLogCap)
	}
	if oldBase >= floor {
		t.Fatalf("old base %d did not fall below log floor %d", oldBase, floor)
	}
	var sys status.SysDelta
	var net status.NetDelta
	var sec status.SecDelta
	if _, ok := db.ChangedSince(oldBase, &sys, &net, &sec); !ok {
		t.Fatalf("base %d refused despite intact tombstone history", oldBase)
	}
	if len(sys.Changed) != 1 || sys.Changed[0].Host != "w-hot" {
		t.Fatalf("scan-path delta wrong: changed=%v", sys.Changed)
	}
	if len(sys.Refreshed) != 0 && (len(sys.Refreshed) != 1 || sys.Refreshed[0] != "w-old") {
		t.Fatalf("scan-path delta wrong: refreshed=%v", sys.Refreshed)
	}
}

// TestApplyDeltaDeletePropagates chains two mirrors: an expiry on the
// source must flow src→mid as a tombstone, and — because Apply*Delta
// now gives mirror-side deletions full version bookkeeping — from
// mid→far through mid's own ChangedSince.
func TestApplyDeltaDeletePropagates(t *testing.T) {
	clock := newFakeClock()
	src, mid, far := NewWithClock(clock.Now), New(), New()
	src.PutSys(status.ServerStatus{Host: "keep", Load1: 1})
	src.PutSys(status.ServerStatus{Host: "drop", Load1: 1})
	src.PutNet(status.NetMetric{From: "m", To: "g", Delay: time.Millisecond})
	src.PutSec(status.SecLevel{Host: "drop", Level: 3})

	var sys status.SysDelta
	var net status.NetDelta
	var sec status.SecDelta
	ship := func(from, to *DB, base uint64) uint64 {
		t.Helper()
		ver, ok := from.ChangedSince(base, &sys, &net, &sec)
		if !ok {
			t.Fatalf("delta from base %d refused", base)
		}
		to.ApplySysDelta(sys.Changed, toBytes(sys.Deleted), toBytes(sys.Refreshed))
		to.ApplyNetDelta(net.Changed, toKeyViews(net.Deleted), toKeyViews(net.Refreshed))
		to.ApplySecDelta(sec.Changed, toBytes(sec.Deleted), toBytes(sec.Refreshed))
		return ver
	}
	midBase := ship(src, mid, 0)
	farBase := ship(mid, far, 0)

	clock.Advance(10 * time.Millisecond)
	src.PutSys(status.ServerStatus{Host: "keep", Load1: 2}) // keep fresh
	if gone := src.ExpireSys(5 * time.Millisecond); len(gone) != 1 || gone[0] != "drop" {
		t.Fatalf("expired %v, want [drop]", gone)
	}
	src.ExpireNet(5 * time.Millisecond)
	src.ExpireSec(5 * time.Millisecond)

	ship(src, mid, midBase)
	ship(mid, far, farBase)
	for name, db := range map[string]*DB{"mid": mid, "far": far} {
		if _, ok := db.GetSys("drop"); ok {
			t.Errorf("%s still holds expired sys record", name)
		}
		if _, ok := db.GetNet("m", "g"); ok {
			t.Errorf("%s still holds expired net record", name)
		}
		if _, ok := db.GetSec("drop"); ok {
			t.Errorf("%s still holds expired sec record", name)
		}
		if db.SysLen() != 1 {
			t.Errorf("%s has %d sys records, want 1", name, db.SysLen())
		}
	}
}

func toBytes(keys []string) [][]byte {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = []byte(k)
	}
	return out
}

func toKeyViews(keys []status.NetKey) []status.NetKeyView {
	out := make([]status.NetKeyView, len(keys))
	for i, k := range keys {
		out[i] = status.NetKeyView{From: []byte(k.From), To: []byte(k.To)}
	}
	return out
}
