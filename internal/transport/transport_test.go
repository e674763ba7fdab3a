package transport

import (
	"context"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"smartsock/internal/obs"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

func seedDB() *store.DB {
	db := store.New()
	db.PutSys(status.ServerStatus{Host: "helene", Load1: 0.5, Bogomips: 3394.76})
	db.PutSys(status.ServerStatus{Host: "dione", Load1: 0.1, Bogomips: 4771.02})
	db.PutNet(status.NetMetric{From: "m1", To: "m2", Delay: 3 * time.Millisecond, Bandwidth: 95e6})
	db.PutSec(status.SecLevel{Host: "helene", Level: 4})
	return db
}

// count reads one counter of reg by its OBS_SCHEMA name — the only
// way these tests see the transport's counters, so every assertion on
// one also pins its registered name: a name nothing registered fails
// the test instead of reading zero.
func count(t testing.TB, reg *obs.Registry, name string) uint64 {
	t.Helper()
	v, ok := reg.Snapshot().Counters[name]
	if !ok {
		t.Fatalf("no counter %q in the registry", name)
	}
	return v
}

// pullModes runs one pull test under both pull protocols: the delta
// protocol, and the thesis one with Compat set on both ends.
func pullModes(t *testing.T, test func(t *testing.T, compat bool)) {
	t.Run("delta", func(t *testing.T) { test(t, false) })
	t.Run("thesis", func(t *testing.T) { test(t, true) })
}

// within polls cond until it holds or timeout passes and reports
// which. A transmitter counts a snapshot or delta as sent after writing
// its last frame ("sent" means complete), so a receiver that has
// already consumed the reply may read transport_tx_snapshots or
// transport_tx_delta_epochs a moment early: exact-count assertions
// poll the counter instead of reading it once.
func within(timeout time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	if !within(timeout, cond) {
		t.Fatal("condition not reached in time")
	}
}

func assertMirrored(t *testing.T, src, dst *store.DB) {
	t.Helper()
	s1, n1, c1 := src.Snapshot()
	s2, n2, c2 := dst.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("sysdb mismatch:\n src=%+v\n dst=%+v", s1, s2)
	}
	if !reflect.DeepEqual(n1, n2) {
		t.Errorf("netdb mismatch:\n src=%+v\n dst=%+v", n1, n2)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("secdb mismatch:\n src=%+v\n dst=%+v", c1, c2)
	}
}

func TestCentralizedModePushes(t *testing.T) {
	src := seedDB()
	dst := store.New()

	recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go recv.Run(ctx)

	reg := obs.NewRegistry()
	tx, err := NewTransmitterObs(src, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	go tx.RunActive(ctx, recv.Addr(), 20*time.Millisecond)

	waitFor(t, 2*time.Second, func() bool { return dst.SysLen() == 2 })
	assertMirrored(t, src, dst)

	// The push keeps flowing: a new record appears at the receiver
	// without any request.
	src.PutSys(status.ServerStatus{Host: "sagit", Bogomips: 1730.15})
	waitFor(t, 2*time.Second, func() bool { return dst.SysLen() == 3 })
	// The first push is a full snapshot; the new record travels as a
	// delta rather than a re-shipped database.
	sent, deltas := count(t, reg, "transport_tx_snapshots"), count(t, reg, "transport_tx_delta_epochs")
	if sent+deltas < 2 {
		t.Errorf("pushed %d (snapshots=%d delta epochs=%d), want ≥ 2", sent+deltas, sent, deltas)
	}
	if sent < 1 {
		t.Errorf("snapshots = %d, want ≥ 1 full snapshot", sent)
	}
}

func TestCentralizedModeSurvivesReceiverRestart(t *testing.T) {
	src := seedDB()
	dst := store.New()
	recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := recv.Addr()
	ctx1, cancel1 := context.WithCancel(context.Background())
	go recv.Run(ctx1)

	txCtx, txCancel := context.WithCancel(context.Background())
	defer txCancel()
	tx, err := NewTransmitterObs(src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	go tx.RunActive(txCtx, addr, 15*time.Millisecond)
	waitFor(t, 2*time.Second, func() bool { return dst.SysLen() == 2 })

	// Kill the receiver, then bring a fresh one up on the same port.
	cancel1()
	time.Sleep(40 * time.Millisecond)
	dst2 := store.New()
	recv2, err := NewReceiverObs(dst2, addr, nil, nil)
	if err != nil {
		t.Skipf("port reuse raced: %v", err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go recv2.Run(ctx2)
	waitFor(t, 3*time.Second, func() bool { return dst2.SysLen() == 2 })
}

func TestDistributedModePull(t *testing.T) {
	src := seedDB()
	dst := store.New()

	tx, err := NewTransmitterObs(src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go tx.ServePassive(ctx, ln)

	recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No standing traffic in distributed mode: nothing arrives until
	// the wizard asks.
	if dst.SysLen() != 0 {
		t.Fatal("data arrived before any pull")
	}
	if err := recv.PullFrom([]string{ln.Addr().String()}, time.Second); err != nil {
		t.Fatalf("PullFrom: %v", err)
	}
	assertMirrored(t, src, dst)
}

func TestDistributedModeMergesMultipleTransmitters(t *testing.T) {
	pullModes(t, func(t *testing.T, compat bool) {
		// Two server groups, each with its own monitor machine and
		// passive transmitter; the wizard-side pull merges both.
		srcA := store.New()
		srcA.PutSys(status.ServerStatus{Host: "group-a-1"})
		srcB := store.New()
		srcB.PutSys(status.ServerStatus{Host: "group-b-1"})
		srcB.PutSys(status.ServerStatus{Host: "group-b-2"})

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var addrs []string
		for _, db := range []*store.DB{srcA, srcB} {
			tx, err := NewTransmitterObs(db, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			tx.Compat = compat
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go tx.ServePassive(ctx, ln)
			addrs = append(addrs, ln.Addr().String())
		}

		dst := store.New()
		recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		recv.Compat = compat
		if err := recv.PullFrom(addrs, time.Second); err != nil {
			t.Fatal(err)
		}
		if dst.SysLen() != 3 {
			t.Errorf("merged SysLen = %d, want 3", dst.SysLen())
		}
	})
}

// Every server group has its own monitor machine (§3.3.3), so several
// transmitters pushing into one receiver is the designed deployment: a
// push snapshot is merged record by record, like a pulled one, and only
// a transmitter's own tombstones remove its hosts. What that gives up,
// the trade-off pulls already made: a host that dies while its monitor's
// push link is down is no longer removed by the reconnect's snapshot —
// it lingers in the mirror until MaxStatusAge. Two thesis-wire (Compat)
// pushers still replace each other's tables every epoch: that wire has
// neither tombstones nor marks, and loading whole tables is all it can
// say.
func TestCentralizedModeMergesMultipleTransmitters(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	srcA := store.NewWithClock(clock)
	a1, a2 := status.ServerStatus{Host: "a1", Load1: 1}, status.ServerStatus{Host: "a2", Load1: 2}
	srcA.PutSys(a1)
	srcA.PutSys(a2)
	srcB := store.New()
	srcB.PutSys(status.ServerStatus{Host: "b1"})

	dst := store.New()
	reg := obs.NewRegistry()
	recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go recv.Run(ctx)
	push := func(src *store.DB) *obs.Registry {
		txReg := obs.NewRegistry()
		tx, err := NewTransmitterObs(src, nil, txReg)
		if err != nil {
			t.Fatal(err)
		}
		go tx.RunActive(ctx, recv.Addr(), 10*time.Millisecond)
		return txReg
	}
	hosts := func() (names []string) {
		for _, r := range dst.FreshSys(0) {
			names = append(names, r.Status.Host)
		}
		return names
	}
	regA := push(srcA)
	waitFor(t, 2*time.Second, func() bool { return dst.SysLen() == 2 })
	push(srcB)
	waitFor(t, 2*time.Second, func() bool { _, ok := dst.GetSys("b1"); return ok })
	if got := hosts(); !reflect.DeepEqual(got, []string{"a1", "a2", "b1"}) {
		t.Fatalf("after B connected the mirror holds %v, want a1 a2 b1", got)
	}

	// A's hosts re-report unchanged, then a1 changes: two delta epochs of
	// A's, neither of which may cost anybody a host.
	deltasA := func() uint64 { return count(t, regA, "transport_tx_delta_epochs") }
	sent := deltasA()
	srcA.PutSys(a1)
	srcA.PutSys(a2)
	waitFor(t, 2*time.Second, func() bool { return deltasA() > sent })
	a1.Load1 = 9
	srcA.PutSys(a1)
	waitFor(t, 2*time.Second, func() bool { r, _ := dst.GetSys("a1"); return r.Status.Load1 == 9 })
	if got := hosts(); !reflect.DeepEqual(got, []string{"a1", "a2", "b1"}) {
		t.Fatalf("after A re-reported and changed the mirror holds %v, want a1 a2 b1", got)
	}

	// An expiry at A is A's tombstone: it removes a1 and nothing else.
	mu.Lock()
	now = now.Add(time.Hour)
	mu.Unlock()
	srcA.PutSys(a2)
	if got := srcA.ExpireSys(30 * time.Minute); !reflect.DeepEqual(got, []string{"a1"}) {
		t.Fatalf("ExpireSys = %v, want [a1]", got)
	}
	waitFor(t, 2*time.Second, func() bool { _, ok := dst.GetSys("a1"); return !ok })
	if got := hosts(); !reflect.DeepEqual(got, []string{"a2", "b1"}) {
		t.Fatalf("after a1 expired at A the mirror holds %v, want a2 b1", got)
	}

	// A monitor that has just restarted pushes a snapshot of nothing —
	// its probes have not re-reported yet. A and B are idle now, so the
	// next frames the receiver counts are that snapshot's.
	frames := count(t, reg, "transport_recv_frames")
	push(store.New())
	waitFor(t, 2*time.Second, func() bool { return count(t, reg, "transport_recv_frames") >= frames+3 })
	if got := hosts(); !reflect.DeepEqual(got, []string{"a2", "b1"}) {
		t.Fatalf("an empty transmitter connecting left the mirror with %v, want a2 b1", got)
	}
}

func TestPullToleratesDeadTransmitter(t *testing.T) {
	pullModes(t, func(t *testing.T, compat bool) {
		src := seedDB()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		tx, err := NewTransmitterObs(src, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tx.Compat = compat
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go tx.ServePassive(ctx, ln)

		dst := store.New()
		recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		recv.Compat = compat
		// First address refuses connections; the live one must still land.
		dead := "127.0.0.1:1" // reserved port, nothing listens
		if err := recv.PullFrom([]string{dead, ln.Addr().String()}, 200*time.Millisecond); err != nil {
			t.Fatalf("PullFrom with one dead transmitter: %v", err)
		}
		if dst.SysLen() != 2 {
			t.Errorf("SysLen = %d, want 2", dst.SysLen())
		}
	})
}

func TestPullFailsWhenAllDead(t *testing.T) {
	pullModes(t, func(t *testing.T, compat bool) {
		dst := store.New()
		// A record the failed pull must leave alone: the thesis pull loads
		// whole tables, but only from a round in which somebody answered.
		dst.PutSys(status.ServerStatus{Host: "kept"})
		recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		recv.Compat = compat
		if err := recv.PullFrom([]string{"127.0.0.1:1"}, 100*time.Millisecond); err == nil {
			t.Error("PullFrom succeeded with no live transmitter")
		}
		if dst.SysLen() != 1 {
			t.Errorf("failed pull changed the mirror: SysLen = %d, want 1", dst.SysLen())
		}
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := NewTransmitterObs(nil, nil, nil); err == nil {
		t.Error("NewTransmitterObs accepted nil db")
	}
	if _, err := NewReceiverObs(nil, "127.0.0.1:0", nil, nil); err == nil {
		t.Error("NewReceiverObs accepted nil db")
	}
	if _, err := NewReceiverObs(store.New(), "256.0.0.1:bad", nil, nil); err == nil {
		t.Error("NewReceiverObs accepted a bad address")
	}
}

func TestReceiverRejectsUnknownFrame(t *testing.T) {
	dst := store.New()
	reg := obs.NewRegistry()
	recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go recv.Run(ctx)

	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// TypeRequest is not valid receiver input in centralized mode.
	if err := status.WriteFrame(conn, status.Frame{Type: status.TypeRequest}); err != nil {
		t.Fatal(err)
	}
	// A valid epoch on a fresh connection still works afterwards.
	conn2, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	f := status.Frame{Type: status.TypeSystem, Data: status.MarshalSystemBatch([]status.ServerStatus{{Host: "x"}})}
	if err := status.WriteFrame(conn2, f); err != nil {
		t.Fatal(err)
	}
	if err := status.WriteFrame(conn2, status.Frame{Type: status.TypeSnapMark, Data: status.AppendSnapMark(nil, 1)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return dst.SysLen() == 1 })
	waitFor(t, 2*time.Second, func() bool { return count(t, reg, "transport_recv_unknown_frames") == 1 })
}
