package transport

// Tests for the delta protocol layered over both transport modes:
// incremental push/pull, tombstone propagation, unchanged-epoch write
// skipping, version-gap resync, and the thesis-fidelity compat mode.

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartsock/internal/obs"
	"smartsock/internal/overload"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

func TestCentralizedDeltaPropagatesChangeAndTombstone(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	src := store.NewWithClock(clock)
	src.PutSys(status.ServerStatus{Host: "keep", Load1: 1})
	src.PutSys(status.ServerStatus{Host: "doomed", Load1: 2})
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
	go tx.RunActive(ctx, recv.Addr(), 10*time.Millisecond)

	waitFor(t, 2*time.Second, func() bool { return dst.SysLen() == 2 })

	// A content change travels as a delta, not a re-shipped snapshot.
	src.PutSys(status.ServerStatus{Host: "keep", Load1: 9})
	waitFor(t, 2*time.Second, func() bool {
		r, ok := dst.GetSys("keep")
		return ok && r.Status.Load1 == 9
	})
	if !within(2*time.Second, func() bool { return count(t, reg, "transport_tx_delta_epochs") > 0 }) {
		t.Errorf("change arrived without any delta push (snapshots=%d)", count(t, reg, "transport_tx_snapshots"))
	}

	// An expiry travels as a tombstone: the host vanishes downstream.
	advance(time.Hour)
	src.PutSys(status.ServerStatus{Host: "keep", Load1: 9}) // keep alive
	if got := src.ExpireSys(30 * time.Minute); len(got) != 1 || got[0] != "doomed" {
		t.Fatalf("ExpireSys = %v, want [doomed]", got)
	}
	waitFor(t, 2*time.Second, func() bool { return dst.SysLen() == 1 })
	if _, ok := dst.GetSys("keep"); !ok {
		t.Fatal("surviving host lost during tombstone propagation")
	}
}

func TestCentralizedDeltaSkipsUnchangedEpochs(t *testing.T) {
	src := seedDB()
	dst := store.New()
	reg := obs.NewRegistry()
	recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go recv.Run(ctx)
	tx, err := NewTransmitterObs(src, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	go tx.RunActive(ctx, recv.Addr(), 5*time.Millisecond)

	txSkipped := func() uint64 { return count(t, reg, "transport_tx_epochs_skipped") }
	waitFor(t, 2*time.Second, func() bool { return txSkipped() >= 1 })
	applied := count(t, reg, "transport_recv_frames")
	skipped := txSkipped()
	waitFor(t, 2*time.Second, func() bool { return txSkipped() >= skipped+3 })
	if got := count(t, reg, "transport_recv_frames"); got != applied {
		t.Errorf("receiver applied %d frames across unchanged epochs, want 0", got-applied)
	}
	assertMirrored(t, src, dst)
}

func TestRefreshOnlyEpochPreservesReceiverSysEpoch(t *testing.T) {
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
	go tx.RunActive(ctx, recv.Addr(), 5*time.Millisecond)
	waitFor(t, 2*time.Second, func() bool { return dst.SysLen() == 2 })
	txDeltas := func() uint64 { return count(t, reg, "transport_tx_delta_epochs") }

	// Re-reporting identical probe content refreshes timestamps but
	// must not bump the receiver's SysView epoch — the wizard's
	// memoized selections stay valid across idle probe ticks.
	epoch := dst.SysView().Epoch
	deltas := txDeltas()
	for i := 0; i < 5; i++ {
		r, _ := src.GetSys("helene")
		src.PutSys(r.Status)
		waitFor(t, 2*time.Second, func() bool { return txDeltas() > deltas })
		deltas = txDeltas()
	}
	waitFor(t, 2*time.Second, func() bool {
		return count(t, reg, "transport_tx_epochs_skipped") > 0 || txDeltas() > deltas
	})
	if got := dst.SysView().Epoch; got != epoch {
		t.Errorf("refresh-only traffic bumped receiver epoch %d -> %d", epoch, got)
	}
}

func TestReceiverForcesResyncOnVersionGap(t *testing.T) {
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
	// Anchor the stream at version 10 with a full snapshot + mark.
	full := status.Frame{Type: status.TypeSystem, Data: status.MarshalSystemBatch([]status.ServerStatus{{Host: "a"}})}
	if err := status.WriteFrame(conn, full); err != nil {
		t.Fatal(err)
	}
	if err := status.WriteFrame(conn, status.Frame{Type: status.TypeSnapMark, Data: status.AppendSnapMark(nil, 10)}); err != nil {
		t.Fatal(err)
	}
	// A delta claiming base 15 skips versions 11–15: a gap.
	d := &status.SysDelta{BaseVer: 15, NewVer: 16, Refreshed: []string{"a"}}
	if err := status.WriteFrame(conn, status.Frame{Type: status.TypeSysDelta, Data: status.AppendSysDelta(nil, d)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return count(t, reg, "transport_recv_resyncs") == 1 })
	// The receiver must have dropped the connection so the transmitter
	// resyncs with a fresh full snapshot.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after version gap")
	}

	// A delta with no preceding snapshot is refused the same way.
	conn2, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := status.WriteFrame(conn2, status.Frame{Type: status.TypeSysDelta, Data: status.AppendSysDelta(nil, d)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return count(t, reg, "transport_recv_resyncs") == 2 })
}

// budgetConn errors every write after the first n, modelling a stream
// cut mid-snapshot.
type budgetConn struct {
	net.Conn
	writes int
	budget int
}

func (c *budgetConn) Write(b []byte) (int, error) {
	if c.writes >= c.budget {
		return 0, errors.New("stream cut")
	}
	c.writes++
	return len(b), nil
}

type nopConn struct{}

func (nopConn) Read(b []byte) (int, error)         { return 0, errors.New("not readable") }
func (nopConn) Write(b []byte) (int, error)        { return len(b), nil }
func (nopConn) Close() error                       { return nil }
func (nopConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (nopConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (nopConn) SetDeadline(t time.Time) error      { return nil }
func (nopConn) SetReadDeadline(t time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(t time.Time) error { return nil }

func TestPartialSnapshotCountsAsPartialNotSent(t *testing.T) {
	reg := obs.NewRegistry()
	tx, err := NewTransmitterObs(seedDB(), nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	sent := func() uint64 { return count(t, reg, "transport_tx_snapshots") }
	partial := func() uint64 { return count(t, reg, "transport_tx_snapshots_partial") }
	var enc encodeState
	// Each frame takes two writes (header, payload): a budget of 3
	// dies inside the second frame.
	conn := &budgetConn{Conn: nopConn{}, budget: 3}
	if _, err := tx.writeSnapshot(conn, &enc); err == nil {
		t.Fatal("writeSnapshot succeeded over a cut stream")
	}
	if sent() != 0 {
		t.Errorf("snapshots = %d after mid-snapshot failure, want 0", sent())
	}
	if partial() != 1 {
		t.Errorf("partial snapshots = %d, want 1", partial())
	}
	// A failure before any byte is on the wire is not a partial.
	conn2 := &budgetConn{Conn: nopConn{}, budget: 0}
	if _, err := tx.writeSnapshot(conn2, &enc); err == nil {
		t.Fatal("writeSnapshot succeeded over a dead stream")
	}
	if partial() != 1 {
		t.Errorf("partial snapshots = %d after zero-byte failure, want still 1", partial())
	}
	// A healthy stream completes and counts once.
	if _, err := tx.writeSnapshot(nopConn{}, &enc); err != nil {
		t.Fatal(err)
	}
	if sent() != 1 || partial() != 1 {
		t.Errorf("snapshots/partial = %d/%d, want 1/1", sent(), partial())
	}
}

// cutConn forwards its first budget writes, then two bytes of the next,
// and closes: the wire image of a transmitter dying mid-snapshot.
type cutConn struct {
	net.Conn
	budget int
}

func (c *cutConn) Write(b []byte) (int, error) {
	if c.budget == 0 {
		_, _ = c.Conn.Write(b[:2])
		_ = c.Conn.Close()
		return 0, errors.New("stream cut")
	}
	c.budget--
	return c.Conn.Write(b)
}

// A push epoch reaches the mirror whole or not at all, like a pull
// reply: a stream cut after the sys frame of a full snapshot (a frame is
// two writes, header and payload) leaves all three tables as they were.
// The cut falls inside the net frame's header, so the receiver counts
// it as torn — by which time it has read everything ahead of it.
func TestPushEpochCutMidSnapshotAppliesNothing(t *testing.T) {
	dst := store.New()
	dst.PutSys(status.ServerStatus{Host: "old-sys", Load1: 7})
	dst.PutNet(status.NetMetric{From: "old-a", To: "old-b", Bandwidth: 1})
	dst.PutSec(status.SecLevel{Host: "old-sec", Level: 2})
	sys, netm, sec := dst.Snapshot()
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
	tx, err := NewTransmitterObs(seedDB(), nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	var sess pushSession
	if err := tx.pushEpoch(&cutConn{Conn: conn, budget: 2}, &sess); err == nil {
		t.Fatal("pushEpoch succeeded over a cut stream")
	}
	waitFor(t, 2*time.Second, func() bool { return count(t, reg, "transport_recv_torn") == 1 })
	if got := count(t, reg, "transport_tx_snapshots_partial"); got != 1 {
		t.Errorf("partial snapshots = %d, want 1", got)
	}
	sys2, net2, sec2 := dst.Snapshot()
	if !reflect.DeepEqual(sys, sys2) || !reflect.DeepEqual(netm, net2) || !reflect.DeepEqual(sec, sec2) {
		t.Errorf("half a snapshot reached the mirror:\n sys %+v\n net %+v\n sec %+v", sys2, net2, sec2)
	}
	if got := count(t, reg, "transport_recv_frames"); got != 0 {
		t.Errorf("transport_recv_frames = %d after an epoch that never completed, want 0", got)
	}
}

// transport_recv_frames counts the batch and delta frames of the epochs
// that reached the mirror — not the mark, which carries no record, and
// nothing for an epoch in which nothing moved — the same way pushed or
// pulled, and overload_bypass moves in lockstep with it.
func TestRecvFramesCountsWhatReachedTheMirror(t *testing.T) {
	steps := []struct {
		name   string
		mutate func(src *store.DB)
		delta  uint64 // frames a delta-protocol epoch adds
	}{
		{"full snapshot", func(*store.DB) {}, 3},
		{"one table moved", func(src *store.DB) { src.PutSys(status.ServerStatus{Host: "sagit"}) }, 1},
		{"three tables moved", moveAllThree, 3},
		{"nothing moved", func(*store.DB) {}, 0},
	}
	for _, mode := range []string{"push", "pull", "thesis push", "thesis pull"} {
		t.Run(mode, func(t *testing.T) {
			compat := strings.HasPrefix(mode, "thesis")
			src, dst, reg := seedDB(), store.New(), obs.NewRegistry()
			tx, err := NewTransmitterObs(src, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			tx.Compat = compat
			recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, reg)
			if err != nil {
				t.Fatal(err)
			}
			recv.Compat = compat
			recv.Overload = overload.New(overload.Config{Obs: reg})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var deliver func() error
			if strings.HasSuffix(mode, "push") {
				go recv.Run(ctx)
				conn, err := net.Dial("tcp", recv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				var sess pushSession
				deliver = func() error { return tx.pushEpoch(conn, &sess) }
			} else {
				defer recv.Close()
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go tx.ServePassive(ctx, ln)
				deliver = func() error { return recv.PullFrom([]string{ln.Addr().String()}, time.Second) }
			}
			var want uint64
			for _, step := range steps {
				step.mutate(src)
				if err := deliver(); err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				if compat {
					want += 3 // the thesis wire re-ships all three tables, always
				} else {
					want += step.delta
				}
				if !within(2*time.Second, func() bool { return count(t, reg, "transport_recv_frames") == want }) {
					t.Fatalf("after %q: transport_recv_frames = %d, want %d", step.name, count(t, reg, "transport_recv_frames"), want)
				}
				assertMirrored(t, src, dst)
			}
			if got := count(t, reg, "overload_bypass"); got != want {
				t.Errorf("overload_bypass = %d beside transport_recv_frames = %d", got, want)
			}
		})
	}
}

func TestDistributedPullIsIncremental(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	src := store.NewWithClock(clock)
	src.PutSys(status.ServerStatus{Host: "helene", Load1: 0.5, Bogomips: 3394.76})
	src.PutSys(status.ServerStatus{Host: "dione", Load1: 0.1, Bogomips: 4771.02})
	src.PutNet(status.NetMetric{From: "m1", To: "m2", Delay: 3 * time.Millisecond, Bandwidth: 95e6})
	src.PutSec(status.SecLevel{Host: "helene", Level: 4})
	reg := obs.NewRegistry()
	tx, err := NewTransmitterObs(src, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	sent := func() uint64 { return count(t, reg, "transport_tx_snapshots") }
	deltas := func() uint64 { return count(t, reg, "transport_tx_delta_epochs") }
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go tx.ServePassive(ctx, ln)

	dst := store.New()
	recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr().String()}

	// First pull: a full snapshot.
	if err := recv.PullFrom(addrs, time.Second); err != nil {
		t.Fatal(err)
	}
	assertMirrored(t, src, dst)
	if !within(2*time.Second, func() bool { return sent() == 1 }) {
		t.Fatalf("first pull shipped %d full snapshots, want 1", sent())
	}

	// Second pull after a change: the reply is a delta, not a
	// re-shipped database.
	src.PutSys(status.ServerStatus{Host: "sagit", Bogomips: 1730.15})
	if err := recv.PullFrom(addrs, time.Second); err != nil {
		t.Fatal(err)
	}
	assertMirrored(t, src, dst)
	if !within(2*time.Second, func() bool { return sent() == 1 && deltas() == 1 }) {
		t.Errorf("after incremental pull: snapshots=%d delta epochs=%d, want 1/1", sent(), deltas())
	}

	// Third pull with nothing new: the transmitter skips the payload
	// entirely and the mirror is untouched.
	epoch := dst.SysView().Epoch
	if err := recv.PullFrom(addrs, time.Second); err != nil {
		t.Fatal(err)
	}
	// The transmitter counts the skip after its write returns, which
	// may be after the receiver has applied the epoch.
	skipped := func() uint64 { return count(t, reg, "transport_tx_epochs_skipped") }
	if !within(2*time.Second, func() bool { return skipped() == 1 }) {
		t.Errorf("unchanged pull: skipped=%d, want 1", skipped())
	}
	if got := dst.SysView().Epoch; got != epoch {
		t.Errorf("unchanged pull bumped epoch %d -> %d", epoch, got)
	}

	// An expiry at the source travels to the puller as a tombstone in
	// the next delta reply.
	advance(time.Hour)
	for _, s := range []status.ServerStatus{
		{Host: "helene", Load1: 0.5, Bogomips: 3394.76},
		{Host: "sagit", Bogomips: 1730.15},
	} {
		src.PutSys(s) // keep alive; dione's probe stays silent
	}
	if got := src.ExpireSys(30 * time.Minute); len(got) != 1 || got[0] != "dione" {
		t.Fatalf("ExpireSys = %v, want [dione]", got)
	}
	if err := recv.PullFrom(addrs, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := dst.GetSys("dione"); ok {
		t.Error("expired host survived at the puller")
	}
	if dst.SysLen() != 2 {
		t.Errorf("after tombstone pull: SysLen = %d, want 2", dst.SysLen())
	}
}

// A passive transmitter that restarts resets its version counter: the
// receiver's next pull still requests the old (large) base, the source
// refuses the diff and answers with a full snapshot carrying a smaller
// version. That snapshot must be adopted — the mirrored version
// rebased onto the new counter — not discarded as stale, or the mirror
// would never update from that transmitter again and its hosts would
// expire from the wizard's view.
func TestPullAdoptsFullReplyFromRestartedTransmitter(t *testing.T) {
	src1 := store.New()
	for _, h := range []string{"a", "b", "c", "d"} {
		src1.PutSys(status.ServerStatus{Host: h, Load1: 1})
	}
	tx1, err := NewTransmitterObs(src1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	gone1 := make(chan error, 1)
	go func() { gone1 <- tx1.ServePassive(ctx1, ln1) }()

	// The receiver pulls a stable logical address; the dial hook
	// routes it to whichever incarnation currently listens, the way a
	// restarted daemon keeps its host:port.
	var target atomic.Value
	target.Store(ln1.Addr().String())
	dst := store.New()
	reg := obs.NewRegistry()
	recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	recv.Dial = func(network, _ string) (net.Conn, error) {
		return net.Dial(network, target.Load().(string))
	}
	addrs := []string{"tx-logical"}
	if err := recv.PullFrom(addrs, time.Second); err != nil {
		t.Fatal(err)
	}
	if dst.SysLen() != 4 {
		t.Fatalf("first pull mirrored %d hosts, want 4", dst.SysLen())
	}

	// Restart: a fresh database whose version counter sits far below
	// the base the receiver will request. ServePassive returns once the
	// old incarnation's handler has exited, so the kept connection cannot
	// be answered by it.
	cancel1()
	if err := <-gone1; err != nil {
		t.Fatal(err)
	}
	src2 := store.New()
	src2.PutSys(status.ServerStatus{Host: "a", Load1: 9})
	tx2, err := NewTransmitterObs(src2, nil, reg) // tx1 is detached: reg's tx counters are tx2's
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	target.Store(ln2.Addr().String())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go tx2.ServePassive(ctx2, ln2)

	if err := recv.PullFrom(addrs, time.Second); err != nil {
		t.Fatal(err)
	}
	if r, ok := dst.GetSys("a"); !ok || r.Status.Load1 != 9 {
		t.Fatal("restarted transmitter's full snapshot was discarded")
	}
	if !within(2*time.Second, func() bool { return count(t, reg, "transport_tx_snapshots") == 1 }) {
		t.Errorf("restart pull shipped %d full snapshots, want 1", count(t, reg, "transport_tx_snapshots"))
	}
	if got := count(t, reg, "transport_recv_resyncs"); got != 1 {
		t.Errorf("restart adoption: resyncs = %d, want 1", got)
	}

	// The mirrored version must now track the new incarnation's counter,
	// so the mirror keeps updating incrementally.
	src2.PutSys(status.ServerStatus{Host: "e", Load1: 2})
	if err := recv.PullFrom(addrs, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := dst.GetSys("e"); !ok {
		t.Error("post-restart pull missed a new host")
	}
	if !within(2*time.Second, func() bool { return count(t, reg, "transport_tx_delta_epochs") == 1 }) {
		t.Errorf("post-restart pull: delta epochs = %d, want 1 (incremental)", count(t, reg, "transport_tx_delta_epochs"))
	}
}

// A snap mark running ahead of the delta frames' NewVer would rebase
// the mirrored version past changes the reply never carried, silently
// skipping them on every later pull; staging must reject the mismatch.
func TestPullRejectsSnapMarkAheadOfDelta(t *testing.T) {
	recv, err := NewReceiverObs(store.New(), "127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := status.SysDelta{BaseVer: 4, NewVer: 7, Changed: []status.ServerStatus{{Host: "x", Load1: 1}}}
	var reply staged
	frame := status.Frame{Type: status.TypeSysDelta, Data: status.AppendSysDelta(nil, &d)}
	if err := recv.stage(frame, &reply); err != nil {
		t.Fatal(err)
	}
	ahead := status.Frame{Type: status.TypeSnapMark, Data: status.AppendSnapMark(nil, 9)}
	if err := recv.stage(ahead, &reply); err == nil {
		t.Fatal("snap mark ahead of the delta epoch was accepted")
	}
	matching := status.Frame{Type: status.TypeSnapMark, Data: status.AppendSnapMark(nil, 7)}
	if err := recv.stage(matching, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.got&markFrame == 0 || reply.top != 7 {
		t.Fatalf("matching mark not staged: top=%d got=%b", reply.top, reply.got)
	}
}

func TestCompatModeSpeaksThesisProtocol(t *testing.T) {
	t.Run("centralized", func(t *testing.T) {
		src := seedDB()
		dst := store.New()
		recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		recv.Compat = true
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go recv.Run(ctx)
		reg := obs.NewRegistry()
		tx, err := NewTransmitterObs(src, nil, reg)
		if err != nil {
			t.Fatal(err)
		}
		tx.Compat = true
		go tx.RunActive(ctx, recv.Addr(), 10*time.Millisecond)

		waitFor(t, 2*time.Second, func() bool { return dst.SysLen() == 2 })
		src.PutSys(status.ServerStatus{Host: "sagit"})
		waitFor(t, 2*time.Second, func() bool { return dst.SysLen() == 3 })
		assertMirrored(t, src, dst)
		// Every epoch re-ships the full database, like the thesis. The
		// second snapshot is counted once written whole, a moment after
		// the receiver has mirrored it (see within).
		if !within(2*time.Second, func() bool { return count(t, reg, "transport_tx_snapshots") >= 2 }) {
			t.Errorf("compat snapshots = %d, want ≥ 2", count(t, reg, "transport_tx_snapshots"))
		}
		if got := count(t, reg, "transport_tx_delta_epochs"); got != 0 {
			t.Errorf("compat mode shipped %d deltas", got)
		}
	})
	t.Run("distributed", func(t *testing.T) {
		src := seedDB()
		reg := obs.NewRegistry()
		tx, err := NewTransmitterObs(src, nil, reg)
		if err != nil {
			t.Fatal(err)
		}
		tx.Compat = true
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go tx.ServePassive(ctx, ln)

		dst := store.New()
		recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		recv.Compat = true
		for i := 0; i < 2; i++ {
			if err := recv.PullFrom([]string{ln.Addr().String()}, time.Second); err != nil {
				t.Fatal(err)
			}
			assertMirrored(t, src, dst)
		}
		sent := func() uint64 { return count(t, reg, "transport_tx_snapshots") }
		if !within(2*time.Second, func() bool { return sent() == 2 }) || count(t, reg, "transport_tx_delta_epochs") != 0 {
			t.Errorf("compat pulls: snapshots=%d delta epochs=%d, want 2/0", sent(), count(t, reg, "transport_tx_delta_epochs"))
		}
	})
}
