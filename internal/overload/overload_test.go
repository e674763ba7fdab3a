package overload

import (
	"net/netip"
	"testing"
	"time"

	"smartsock/internal/obs"
)

func src(port uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), port)
}

func TestDisabledGateAdmitsEverything(t *testing.T) {
	var g *Gate // nil gate: serve directly
	if g.Enabled() {
		t.Fatal("nil gate reports enabled")
	}
	if !g.AllowSource(src(1), time.Now()) {
		t.Fatal("nil gate rejected a source")
	}
	g.Bypass(3) // must not panic
	if g.Shed() != 0 || g.RateLimited() != 0 {
		t.Fatal("nil gate reports nonzero counters")
	}

	zero := New(Config{}) // MaxQueue 0: constructed but disarmed
	if zero.Enabled() {
		t.Fatal("MaxQueue=0 gate reports enabled")
	}
	if zero.Target() != DefaultTarget || zero.RetryAfter() != DefaultRetryAfter {
		t.Fatalf("defaults not applied: target %v retry-after %v", zero.Target(), zero.RetryAfter())
	}
}

// TestDisabledGateQueuePassesThrough pins the pass-through policy: the
// queue is one receive batch deep, a Push into a full queue blocks
// until a Pop makes room instead of evicting, every sojourn is
// admitted, no source is limited, and the shed counters stay at zero.
func TestDisabledGateQueuePassesThrough(t *testing.T) {
	g := New(Config{Rate: 1}) // MaxQueue 0: Rate is ignored too
	q := g.NewQueue(2)
	if q.Cap() != 2 {
		t.Fatalf("pass-through queue depth = %d, want the receive batch (2)", q.Cap())
	}
	now := time.Now()
	for i := 0; i < 100; i++ {
		if !g.AllowSource(src(1), now) {
			t.Fatalf("disabled gate rate-limited request %d", i)
		}
	}
	a := Item{Addr: src(1), Enq: now}
	b := Item{Addr: src(2), Enq: now}
	c := Item{Addr: src(3), Enq: now}
	q.Push(a)
	q.Push(b)
	pushed := make(chan bool, 1)
	go func() {
		_, ev := q.Push(c)
		pushed <- ev
	}()
	select {
	case <-pushed:
		t.Fatal("Push into a full pass-through queue returned before any Pop")
	case <-time.After(50 * time.Millisecond):
	}
	if it, ok := q.Pop(); !ok || it.Addr != a.Addr {
		t.Fatalf("front = %v, want %v: a blocked Push must not evict", it.Addr, a.Addr)
	}
	if ev := <-pushed; ev {
		t.Fatal("pass-through Push reported an eviction")
	}
	for _, want := range []Item{b, c} {
		if it, ok := q.TryPop(); !ok || it.Addr != want.Addr {
			t.Fatalf("next = %v, want %v", it.Addr, want.Addr)
		}
	}

	// Sojourns that drive an enabled gate's CoDel into shedding
	// (TestCoDelShedsPersistentStandingQueue) are all admitted here.
	for i := 0; i < 400; i++ {
		if codelStep(q, time.Hour, now.Add(time.Duration(i)*5*time.Millisecond)) {
			t.Fatalf("disabled gate shed dequeue %d", i)
		}
	}
	if g.QueueDelay().Count() != 400 {
		t.Fatalf("overload_queue_delay count = %d, want 400", g.QueueDelay().Count())
	}
	if g.Shed() != 0 || g.RateLimited() != 0 {
		t.Fatalf("disabled gate counted shed=%d ratelimited=%d, want 0 and 0", g.Shed(), g.RateLimited())
	}
}

func TestTokenBucketLimitsOnlyTheRunawaySource(t *testing.T) {
	g := New(Config{MaxQueue: 16, Rate: 10})
	now := time.Now()

	// The runaway source: the burst (2×Rate) allows the first 20, then
	// rejection until tokens accrue.
	hot := src(1000)
	for i := 0; i < 20; i++ {
		if !g.AllowSource(hot, now) {
			t.Fatalf("request %d within burst rejected", i)
		}
	}
	if g.AllowSource(hot, now) {
		t.Fatal("burst-exhausted source admitted")
	}
	if g.RateLimited() != 1 {
		t.Fatalf("overload_ratelimited = %d, want 1", g.RateLimited())
	}

	// A cold source at the same instant is untouched.
	if !g.AllowSource(src(2000), now) {
		t.Fatal("cold source rejected while hot source is limited")
	}

	// Tokens accrue at Rate: 100ms buys one request back.
	if !g.AllowSource(hot, now.Add(100*time.Millisecond)) {
		t.Fatal("refilled source still rejected")
	}
	if g.AllowSource(hot, now.Add(100*time.Millisecond)) {
		t.Fatal("second request admitted from a one-token bucket")
	}
}

func TestLimiterLRUEvictsColdestSource(t *testing.T) {
	l := newLimiter(1, 1, 2)
	now := time.Now()
	l.allow(src(1), now)
	l.allow(src(2), now)
	if got := l.sources(); got != 2 {
		t.Fatalf("sources = %d, want 2", got)
	}
	// Touch 1 so 2 is the coldest, then add 3: 2 must be evicted.
	l.allow(src(1), now)
	l.allow(src(3), now)
	if got := l.sources(); got != 2 {
		t.Fatalf("sources = %d, want 2 after eviction", got)
	}
	// An evicted source returns with a fresh bucket (its debt is
	// forgotten, by design).
	if !l.allow(src(2), now) {
		t.Fatal("returning evicted source should start with a full bucket")
	}
}

func TestQueuePushEvictsFromFront(t *testing.T) {
	g := New(Config{MaxQueue: 2})
	q := g.NewQueue(1)
	now := time.Now()

	a := Item{Addr: src(1), Enq: now}
	b := Item{Addr: src(2), Enq: now}
	c := Item{Addr: src(3), Enq: now}
	if _, ev := q.Push(a); ev {
		t.Fatal("push into empty queue evicted")
	}
	if _, ev := q.Push(b); ev {
		t.Fatal("push into non-full queue evicted")
	}
	old, ev := q.Push(c)
	if !ev {
		t.Fatal("push into full queue did not evict")
	}
	if old.Addr != a.Addr {
		t.Fatalf("evicted %v, want the front item %v", old.Addr, a.Addr)
	}
	if g.Shed() != 1 {
		t.Fatalf("overload_shed = %d, want 1", g.Shed())
	}
	// Queue order after eviction: b then c.
	it, ok := q.TryPop()
	if !ok || it.Addr != b.Addr {
		t.Fatalf("front after eviction = %v, want %v", it.Addr, b.Addr)
	}
	it, ok = q.TryPop()
	if !ok || it.Addr != c.Addr {
		t.Fatalf("second after eviction = %v, want %v", it.Addr, c.Addr)
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestQueueCloseReleasesPop(t *testing.T) {
	g := New(Config{MaxQueue: 2})
	q := g.NewQueue(1)
	q.Push(Item{Addr: src(1), Enq: time.Now()})
	q.Close()
	if _, ok := q.Pop(); !ok {
		t.Fatal("queued item lost at close")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on closed drained queue reported an item")
	}
}

// codelStep feeds one dequeue observation with a fixed sojourn at
// time now and reports whether CoDel shed it.
func codelStep(q *Queue, sojourn time.Duration, now time.Time) bool {
	return !q.AdmitDequeued(Item{Enq: now.Add(-sojourn)}, now)
}

func TestCoDelAbsorbsBurstsShorterThanInterval(t *testing.T) {
	g := New(Config{MaxQueue: 64, Target: 5 * time.Millisecond, Interval: 100 * time.Millisecond})
	q := g.NewQueue(1)
	now := time.Now()
	// Sojourn above target for less than one interval, then back under:
	// nothing may be shed.
	for i := 0; i < 50; i++ {
		if codelStep(q, 20*time.Millisecond, now.Add(time.Duration(i)*time.Millisecond)) {
			t.Fatalf("shed at %dms, inside the first interval", i)
		}
	}
	if codelStep(q, time.Millisecond, now.Add(60*time.Millisecond)) {
		t.Fatal("shed after sojourn fell under target")
	}
	if g.Shed() != 0 {
		t.Fatalf("overload_shed = %d, want 0", g.Shed())
	}
}

func TestCoDelShedsPersistentStandingQueue(t *testing.T) {
	g := New(Config{MaxQueue: 64, Target: 5 * time.Millisecond, Interval: 100 * time.Millisecond})
	q := g.NewQueue(1)
	now := time.Now()
	shed := 0
	// Sojourn pinned above target for 2s of dequeues every 5ms: after
	// the first interval the control law must shed at an increasing
	// rate, and admitted sojourns must land in the histogram.
	for i := 0; i < 400; i++ {
		if codelStep(q, 25*time.Millisecond, now.Add(time.Duration(i)*5*time.Millisecond)) {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("persistent standing queue never shed")
	}
	if uint64(shed) != g.Shed() {
		t.Fatalf("shed %d but overload_shed = %d", shed, g.Shed())
	}
	// Control law: drops accelerate. The second second must shed at
	// least as much as the first.
	if shed < 10 {
		t.Fatalf("only %d sheds in 2s of sustained overload", shed)
	}

	// Recovery: sojourn back under target ends the episode instantly.
	if codelStep(q, time.Millisecond, now.Add(3*time.Second)) {
		t.Fatal("shed after recovery")
	}
	after := g.Shed()
	if codelStep(q, time.Millisecond, now.Add(3*time.Second+5*time.Millisecond)) {
		t.Fatal("shed while healthy")
	}
	if g.Shed() != after {
		t.Fatal("overload_shed moved while healthy")
	}
}

func TestAdmittedSojournsLandInHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	g := New(Config{MaxQueue: 64, Obs: reg})
	q := g.NewQueue(1)
	now := time.Now()
	if !q.AdmitDequeued(Item{Enq: now.Add(-time.Millisecond)}, now) {
		t.Fatal("healthy item shed")
	}
	snap := reg.Snapshot()
	h, ok := snap.Histograms["overload_queue_delay"]
	if !ok {
		t.Fatal("overload_queue_delay not registered")
	}
	if h.Count != 1 {
		t.Fatalf("histogram count = %d, want 1", h.Count)
	}
	if h.Sum < int64(900*time.Microsecond) || h.Sum > int64(1100*time.Microsecond) {
		t.Fatalf("histogram sum = %dns, want ~1ms", h.Sum)
	}
	for _, name := range []string{"overload_shed", "overload_ratelimited", "overload_bypass"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("counter %s not registered at gate construction", name)
		}
	}
}

func TestBypassCountsPriorityTraffic(t *testing.T) {
	reg := obs.NewRegistry()
	g := New(Config{MaxQueue: 4, Obs: reg})
	g.Bypass(3)
	g.Bypass(2)
	if got := reg.Snapshot().Counters["overload_bypass"]; got != 5 {
		t.Fatalf("overload_bypass = %d, want 5", got)
	}
}
