package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"smartsock/internal/status"
)

// fakeClock is a settable clock for deterministic expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2004, 6, 1, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func host(name string, load float64) status.ServerStatus {
	return status.ServerStatus{Host: name, Load1: load, CPUIdle: 0.9}
}

func TestPutSysUpsert(t *testing.T) {
	db := New()
	db.PutSys(host("a", 0.1))
	db.PutSys(host("b", 0.2))
	db.PutSys(host("a", 0.9)) // update, not insert
	if db.SysLen() != 2 {
		t.Fatalf("SysLen = %d, want 2", db.SysLen())
	}
	r, ok := db.GetSys("a")
	if !ok || r.Status.Load1 != 0.9 {
		t.Errorf("GetSys(a) = %+v (%v), want updated load 0.9", r, ok)
	}
}

func TestSysSorted(t *testing.T) {
	db := New()
	for _, h := range []string{"zeta", "alpha", "mid"} {
		db.PutSys(host(h, 1))
	}
	recs := db.FreshSys(0)
	var names []string
	for _, r := range recs {
		names = append(names, r.Status.Host)
	}
	if !reflect.DeepEqual(names, []string{"alpha", "mid", "zeta"}) {
		t.Errorf("Sys order = %v", names)
	}
}

func TestExpireSysAfterMissedIntervals(t *testing.T) {
	// §4.1: "A server failure is detected, if any probe fails to
	// report after 3 consecutive intervals."
	clk := newFakeClock()
	db := NewWithClock(clk.Now)
	interval := 10 * time.Second
	db.PutSys(host("fresh", 1))
	clk.Advance(2 * interval)
	db.PutSys(host("fresh", 2)) // fresh keeps reporting
	db.PutSys(host("dying", 1))
	clk.Advance(3*interval + time.Second)
	db.PutSys(host("fresh", 3))

	expired := db.ExpireSys(3 * interval)
	if !reflect.DeepEqual(expired, []string{"dying"}) {
		t.Errorf("expired = %v, want [dying]", expired)
	}
	if _, ok := db.GetSys("dying"); ok {
		t.Error("dying still present after expiry")
	}
	if _, ok := db.GetSys("fresh"); !ok {
		t.Error("fresh was wrongly expired")
	}
}

func TestServerRejoinsAfterExpiry(t *testing.T) {
	clk := newFakeClock()
	db := NewWithClock(clk.Now)
	db.PutSys(host("roamer", 1))
	clk.Advance(time.Hour)
	db.ExpireSys(30 * time.Second)
	if db.SysLen() != 0 {
		t.Fatal("record survived expiry")
	}
	db.PutSys(host("roamer", 2)) // probe resumes (§3.2.2)
	if _, ok := db.GetSys("roamer"); !ok {
		t.Error("server could not rejoin after expiry")
	}
}

func TestNetRecords(t *testing.T) {
	db := New()
	db.PutNet(status.NetMetric{From: "m1", To: "m2", Delay: 5 * time.Millisecond, Bandwidth: 95e6})
	db.PutNet(status.NetMetric{From: "m2", To: "m1", Delay: 6 * time.Millisecond, Bandwidth: 90e6})
	db.PutNet(status.NetMetric{From: "m1", To: "m2", Delay: 7 * time.Millisecond, Bandwidth: 80e6})
	if got := len(db.Net()); got != 2 {
		t.Fatalf("Net len = %d, want 2 (directed pairs upsert)", got)
	}
	r, ok := db.GetNet("m1", "m2")
	if !ok || r.Metric.Delay != 7*time.Millisecond {
		t.Errorf("GetNet(m1,m2) = %+v (%v)", r, ok)
	}
	if _, ok := db.GetNet("m2", "m3"); ok {
		t.Error("GetNet returned a record for an unknown pair")
	}
}

func TestNetKeyDirectional(t *testing.T) {
	db := New()
	db.PutNet(status.NetMetric{From: "a", To: "bc"})
	db.PutNet(status.NetMetric{From: "ab", To: "c"})
	if got := len(db.Net()); got != 2 {
		t.Errorf("ambiguous net keys collided: len = %d, want 2", got)
	}
}

// TestNetKeySeparatorInName: a wire-supplied monitor name may hold any
// byte, the 0 byte a concatenated key would separate the pair with
// included. The two pairs below are two records everywhere a key is
// used: the live table, a delta, a mirror, the tombstones.
func TestNetKeySeparatorInName(t *testing.T) {
	clk := newFakeClock()
	db, mirror := NewWithClock(clk.Now), New()
	pairs := []status.NetKey{{From: "a\x00b", To: "c"}, {From: "a", To: "b\x00c"}}
	for i, k := range pairs {
		db.PutNet(status.NetMetric{From: k.From, To: k.To, Delay: time.Duration(i+1) * time.Millisecond})
	}
	var sys status.SysDelta
	var net status.NetDelta
	var sec status.SecDelta
	ship := func(base uint64) uint64 {
		t.Helper()
		ver, ok := db.ChangedSince(base, &sys, &net, &sec)
		if !ok {
			t.Fatalf("delta from base %d refused", base)
		}
		mirror.ApplyNetDelta(net.Changed, toKeyViews(net.Deleted), toKeyViews(net.Refreshed))
		return ver
	}
	base := ship(0)
	for name, d := range map[string]*DB{"source": db, "mirror": mirror} {
		if d.NetLen() != 2 {
			t.Fatalf("%s holds %d net records, want 2", name, d.NetLen())
		}
		for i, k := range pairs {
			if r, ok := d.GetNet(k.From, k.To); !ok || r.Metric.Delay != time.Duration(i+1)*time.Millisecond {
				t.Errorf("%s: GetNet(%q, %q) = %+v (%v)", name, k.From, k.To, r.Metric, ok)
			}
		}
	}
	clk.Advance(time.Minute)
	if n := db.ExpireNet(30 * time.Second); n != 2 {
		t.Fatalf("ExpireNet = %d, want 2", n)
	}
	ship(base)
	if want := []status.NetKey{pairs[1], pairs[0]}; !reflect.DeepEqual(net.Deleted, want) {
		t.Errorf("tombstones in the delta = %q, want %q", net.Deleted, want)
	}
	if mirror.NetLen() != 0 {
		t.Errorf("mirror still holds %d net records after both expired", mirror.NetLen())
	}
}

func TestExpireNet(t *testing.T) {
	clk := newFakeClock()
	db := NewWithClock(clk.Now)
	db.PutNet(status.NetMetric{From: "m1", To: "m2"})
	clk.Advance(time.Minute)
	db.PutNet(status.NetMetric{From: "m1", To: "m3"})
	if n := db.ExpireNet(30 * time.Second); n != 1 {
		t.Errorf("ExpireNet = %d, want 1", n)
	}
}

func TestSecRecords(t *testing.T) {
	db := New()
	db.PutSec(status.SecLevel{Host: "sagit", Level: 5})
	db.PutSec(status.SecLevel{Host: "sagit", Level: 3})
	r, ok := db.GetSec("sagit")
	if !ok || r.Level.Level != 3 {
		t.Errorf("GetSec = %+v (%v), want level 3", r, ok)
	}
}

func TestSnapshotLoadMirrors(t *testing.T) {
	// §3.5.2: the receiver maintains "identical shared memory contents
	// as what is in the transmitter".
	src := New()
	for i := 0; i < 5; i++ {
		src.PutSys(host(fmt.Sprintf("h%d", i), float64(i)))
	}
	src.PutNet(status.NetMetric{From: "m1", To: "m2", Delay: time.Millisecond, Bandwidth: 1e6})
	src.PutSec(status.SecLevel{Host: "h0", Level: 2})

	sys, net, sec := src.Snapshot()
	dst := New()
	dst.Load(sys, net, sec)

	s2, n2, c2 := dst.Snapshot()
	if !reflect.DeepEqual(sys, s2) || !reflect.DeepEqual(net, n2) || !reflect.DeepEqual(sec, c2) {
		t.Error("receiver-side database does not mirror transmitter contents")
	}
}

func TestLoadNilLeavesSectionUntouched(t *testing.T) {
	db := New()
	db.PutSys(host("keep", 1))
	db.Load(nil, []status.NetMetric{{From: "a", To: "b"}}, nil)
	if _, ok := db.GetSys("keep"); !ok {
		t.Error("Load(nil,...) wiped the sys section")
	}
	if len(db.Net()) != 1 {
		t.Error("Load did not replace the net section")
	}
}

func TestLoadReplacesStaleEntries(t *testing.T) {
	db := New()
	db.PutSys(host("old", 1))
	db.Load([]status.ServerStatus{host("new", 2)}, nil, nil)
	if _, ok := db.GetSys("old"); ok {
		t.Error("Load kept an entry absent from the incoming batch")
	}
}

func TestConcurrentAccess(t *testing.T) {
	// The shared-memory analogue must support concurrent monitor
	// writes and wizard reads (§3.2.2 / Table 4.3). Run with -race.
	db := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				db.PutSys(host(fmt.Sprintf("h%d", i%7), float64(i)))
				db.PutNet(status.NetMetric{From: "m1", To: fmt.Sprintf("m%d", w)})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				db.FreshSys(0)
				db.Snapshot()
				db.ExpireSys(time.Hour)
			}
		}()
	}
	wg.Wait()
	if db.SysLen() != 7 {
		t.Errorf("SysLen = %d, want 7", db.SysLen())
	}
}

func TestPropertySnapshotLoadIdempotent(t *testing.T) {
	// Snapshot∘Load is the transmitter/receiver contract: applying a
	// snapshot to any database yields a database whose own snapshot is
	// identical — for arbitrary record populations.
	prop := func(seed int64, nSys, nNet, nSec uint8) bool {
		r := rand.New(rand.NewSource(seed))
		src := New()
		for i := 0; i < int(nSys%20); i++ {
			src.PutSys(status.ServerStatus{
				Host:  fmt.Sprintf("h%02d", r.Intn(12)),
				Load1: float64(r.Intn(100)) / 10,
			})
		}
		for i := 0; i < int(nNet%10); i++ {
			src.PutNet(status.NetMetric{
				From: fmt.Sprintf("m%d", r.Intn(3)), To: fmt.Sprintf("g%d", r.Intn(4)),
				Delay: time.Duration(r.Intn(1000)) * time.Microsecond,
			})
		}
		for i := 0; i < int(nSec%10); i++ {
			src.PutSec(status.SecLevel{Host: fmt.Sprintf("h%02d", r.Intn(12)), Level: r.Intn(9)})
		}
		s1, n1, c1 := src.Snapshot()
		dst := New()
		dst.Load(s1, n1, c1)
		s2, n2, c2 := dst.Snapshot()
		return reflect.DeepEqual(s1, s2) && reflect.DeepEqual(n1, n2) && reflect.DeepEqual(c1, c2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyExpiryNeverRemovesFresh(t *testing.T) {
	prop := func(nRaw uint8, ageRaw uint16) bool {
		clk := newFakeClock()
		db := NewWithClock(clk.Now)
		n := int(nRaw%20) + 1
		maxAge := time.Duration(ageRaw%1000+1) * time.Millisecond
		for i := 0; i < n; i++ {
			db.PutSys(status.ServerStatus{Host: fmt.Sprintf("h%d", i)})
		}
		// Advance to just inside the horizon: nothing may expire.
		clk.Advance(maxAge - time.Millisecond)
		if got := db.ExpireSys(maxAge); len(got) != 0 {
			return false
		}
		// Advance past it: everything must expire.
		clk.Advance(2 * time.Millisecond)
		return len(db.ExpireSys(maxAge)) == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
