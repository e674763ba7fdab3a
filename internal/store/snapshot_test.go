package store

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"smartsock/internal/status"
)

func TestSysViewSortedAndShared(t *testing.T) {
	db := New()
	for _, h := range []string{"carol", "alice", "bob"} {
		db.PutSys(host(h, 0.1))
	}
	v1 := db.SysView()
	if v1.Len() != 3 {
		t.Fatalf("%d records, want 3", v1.Len())
	}
	for i, want := range []string{"alice", "bob", "carol"} {
		if got := v1.At(i).Status.Host; got != want {
			t.Errorf("record %d is %q, want %q", i, got, want)
		}
	}
	// No mutation between reads: same snapshot pointer, no rebuild.
	if v2 := db.SysView(); v2 != v1 {
		t.Error("second SysView rebuilt the snapshot without a mutation")
	}
}

func TestSysViewEpochAdvancesOnMutation(t *testing.T) {
	db := New()
	db.PutSys(host("alice", 0.1))
	v1 := db.SysView()

	db.PutSys(host("bob", 0.2))
	v2 := db.SysView()
	if v2 == v1 || v2.Epoch <= v1.Epoch {
		t.Fatalf("PutSys did not advance the snapshot: epoch %d → %d", v1.Epoch, v2.Epoch)
	}
	// The old snapshot is immutable: still one record, still alice.
	if v1.Len() != 1 || v1.At(0).Status.Host != "alice" {
		t.Errorf("old snapshot mutated: %+v", flat(v1))
	}
	if v2.Len() != 2 {
		t.Errorf("new snapshot has %d records, want 2", v2.Len())
	}
	if db.SysEpoch() != v2.Epoch {
		t.Errorf("SysEpoch = %d, snapshot epoch = %d", db.SysEpoch(), v2.Epoch)
	}
}

func TestSysViewInvalidatedByExpireAndLoad(t *testing.T) {
	clock := newFakeClock()
	db := NewWithClock(clock.Now)
	db.PutSys(host("alice", 0.1))
	clock.Advance(10 * time.Second)
	db.PutSys(host("bob", 0.2))
	v1 := db.SysView()

	// Expiry that removes a record must invalidate.
	if gone := db.ExpireSys(5 * time.Second); len(gone) != 1 || gone[0] != "alice" {
		t.Fatalf("ExpireSys removed %v, want [alice]", gone)
	}
	v2 := db.SysView()
	if v2.Epoch <= v1.Epoch {
		t.Error("ExpireSys that removed a record did not bump the epoch")
	}
	if v2.Len() != 1 || v2.At(0).Status.Host != "bob" {
		t.Errorf("post-expiry snapshot: %+v", flat(v2))
	}

	// Expiry that removes nothing must not invalidate: the wizard's
	// hot path keeps its cached snapshot across no-op sweeps.
	if gone := db.ExpireSys(5 * time.Second); len(gone) != 0 {
		t.Fatalf("second ExpireSys removed %v, want none", gone)
	}
	if v3 := db.SysView(); v3 != v2 {
		t.Error("no-op ExpireSys invalidated the snapshot")
	}

	// Load with a sys section replaces the table and must invalidate.
	db.Load([]status.ServerStatus{host("carol", 0.3)}, nil, nil)
	v4 := db.SysView()
	if v4.Epoch <= v2.Epoch {
		t.Error("Load did not bump the epoch")
	}
	if v4.Len() != 1 || v4.At(0).Status.Host != "carol" {
		t.Errorf("post-load snapshot: %+v", flat(v4))
	}

	// Load with nil sys leaves the section (and its snapshot) alone.
	db.Load(nil, nil, nil)
	if db.SysView() != v4 {
		t.Error("Load(nil sys) invalidated the snapshot")
	}
}

func TestFreshSysMatchesSnapshotCutoff(t *testing.T) {
	clock := newFakeClock()
	db := NewWithClock(clock.Now)
	db.PutSys(host("stale", 0.1))
	clock.Advance(30 * time.Second)
	db.PutSys(host("fresh", 0.2))

	got := db.FreshSys(10 * time.Second)
	if len(got) != 1 || got[0].Status.Host != "fresh" {
		t.Fatalf("FreshSys = %+v, want just fresh", got)
	}
	// Sys and FreshSys both derive from one snapshot, so the counts a
	// selector reports can never disagree.
	if total := len(db.FreshSys(0)); total != 2 {
		t.Fatalf("Sys has %d records, want 2", total)
	}
}

// wallStepped is at, which carries a monotonic reading, with its wall
// reading moved by d (whole seconds) and its monotonic reading kept:
// what the real clock reads after an NTP or VM-resume step. No exported
// API builds such a time, so it edits the encoding — seconds since 1885
// in bits 30–62 of the first word while the monotonic flag is set — and
// checks the result.
func wallStepped(t *testing.T, at time.Time, d time.Duration) time.Time {
	t.Helper()
	stepped := at
	(*struct{ wall uint64 })(unsafe.Pointer(&stepped)).wall += uint64(int64(d/time.Second)) << 30
	if stepped.Round(0).Sub(at.Round(0)) != d || stepped.Sub(at) != 0 {
		t.Fatalf("time.Time is not encoded as this test assumes: %v stepped by %v reads %v", at, d, stepped)
	}
	return stepped
}

// TestFreshnessIgnoresWallClockSteps: the clock's wall reading steps an
// hour ahead, then an hour behind, while its monotonic reading moves on
// by seconds. The snapshot's cutoff, FreshSys and expiry all judge the
// record's age on the monotonic reading, and agree.
func TestFreshnessIgnoresWallClockSteps(t *testing.T) {
	start := time.Now()
	now := start
	db := NewWithClock(func() time.Time { return now })
	db.PutSys(host("steady", 1))
	page, _ := db.SysView().Page(0)
	if page.Before(0, Offset(start)) || !page.Before(0, Offset(start.Add(time.Nanosecond))) {
		t.Error("the cutoff a nanosecond either side of the stamp is on the wrong side")
	}
	agree := func(step string, fresh bool) {
		t.Helper()
		page, _ := db.SysView().Page(0)
		stale := page.Before(0, Offset(db.Now().Add(-time.Minute)))
		kept := len(db.FreshSys(time.Minute)) == 1
		gone := len(db.ExpireSys(time.Minute)) == 1
		if stale == fresh || kept != fresh || gone == fresh {
			t.Errorf("%s: stale by the cutoff %v, kept by FreshSys %v, expired %v; want fresh %v", step, stale, kept, gone, fresh)
		}
	}
	now = wallStepped(t, start.Add(time.Second), time.Hour)
	agree("a second on, the wall an hour ahead", true)
	now = wallStepped(t, start.Add(2*time.Minute), -time.Hour)
	agree("two minutes on, the wall an hour behind", false)
}

func TestSysViewConcurrentReadersAndWriters(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				db.PutSys(host(fmt.Sprintf("host%d-%d", g, i%8), float64(i)))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for i := 0; i < 2000; i++ {
				v := db.SysView()
				if v.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", v.Epoch, lastEpoch)
					return
				}
				lastEpoch = v.Epoch
				for j := 1; j < v.Len(); j++ {
					if v.At(j-1).Status.Host >= v.At(j).Status.Host {
						t.Error("snapshot records out of order")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
