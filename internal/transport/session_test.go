package transport

// Tests for the pull session: the connection and buffers a receiver
// keeps per passive transmitter between pulls. All of them run over real
// loopback sockets, and what they wait for they poll.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartsock/internal/obs"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// startScriptedTx starts a passive transmitter whose connection
// handling the test scripts, and returns its address: serve is handed
// every accepted connection together with answer, which reads one
// request from it and writes the real transmitter's reply to out.
func startScriptedTx(t *testing.T, src *store.DB, compat bool, serve func(c net.Conn, answer func(out net.Conn) error)) string {
	t.Helper()
	tx, err := NewTransmitterObs(src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx.Compat = compat
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				var enc encodeState
				serve(c, func(out net.Conn) error {
					if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
						return err
					}
					f, err := status.ReadFrame(c)
					if err != nil {
						return err
					}
					return tx.answerPull(out, f.Data, &enc)
				})
			}()
		}
	}()
	return ln.Addr().String()
}

// countingReceiver is a receiver over a fresh mirror whose dials are
// counted and routed to whatever address target names at the time.
func countingReceiver(t *testing.T, compat bool, target func() string) (recv *Receiver, dst *store.DB, reg *obs.Registry, dials *atomic.Int64) {
	t.Helper()
	dst, reg, dials = store.New(), obs.NewRegistry(), new(atomic.Int64)
	recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	recv.Compat = compat
	recv.Dial = func(network, _ string) (net.Conn, error) {
		dials.Add(1)
		return net.DialTimeout(network, target(), 2*time.Second)
	}
	return recv, dst, reg, dials
}

// A transmitter that closes the connection after every reply — an idle
// deadline that fired, or a thesis-era peer — costs the receiver one
// redial per pull and nothing else: no error, nothing counted as torn.
func TestPullSessionRedialsStaleConnection(t *testing.T) {
	pullModes(t, func(t *testing.T, compat bool) {
		src := seedDB()
		addr := startScriptedTx(t, src, compat, func(c net.Conn, answer func(net.Conn) error) { _ = answer(c) })
		recv, dst, reg, dials := countingReceiver(t, compat, func() string { return addr })
		for pull := 1; pull <= 3; pull++ {
			src.PutSys(status.ServerStatus{Host: fmt.Sprintf("late-%d", pull), Load1: float64(pull)})
			if err := recv.PullFrom([]string{"tx"}, 2*time.Second); err != nil {
				t.Fatalf("pull %d over a connection the transmitter closed: %v", pull, err)
			}
			assertMirrored(t, src, dst)
			if got := dials.Load(); got != int64(pull) {
				t.Fatalf("after pull %d: %d dials, want %d (one redial per stale connection)", pull, got, pull)
			}
		}
		if got := count(t, reg, "transport_recv_torn"); got != 0 {
			t.Errorf("transport_recv_torn = %d after stale connections, want 0", got)
		}
	})
}

// A healthy transmitter is dialed once, however many pulls follow.
func TestPullSessionKeepsItsConnection(t *testing.T) {
	pullModes(t, func(t *testing.T, compat bool) {
		src := seedDB()
		tx, err := NewTransmitterObs(src, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tx.Compat = compat
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go tx.ServePassive(ctx, ln)
		recv, dst, _, dials := countingReceiver(t, compat, func() string { return ln.Addr().String() })
		for pull := 0; pull < 5; pull++ {
			src.PutSys(status.ServerStatus{Host: "helene", Load1: float64(pull)})
			if err := recv.PullFrom([]string{"tx"}, 2*time.Second); err != nil {
				t.Fatal(err)
			}
			assertMirrored(t, src, dst)
		}
		if got := dials.Load(); got != 1 {
			t.Errorf("5 pulls dialed %d times, want 1", got)
		}
	})
}

// A transmitter restarted behind its address: the kept connection died
// with the old incarnation, the new one counts versions from zero. The
// pull finds the connection stale, redials once, and the full snapshot
// it gets — at a version below the base it asked from — is adopted.
func TestPullSessionAdoptsRestartedTransmitterOverRedial(t *testing.T) {
	var target atomic.Value
	// start runs one incarnation; the function it returns stops it and
	// waits until ServePassive — and with it the handler of the kept
	// connection — has returned.
	start := func(src *store.DB) (stop func()) {
		tx, err := NewTransmitterObs(src, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		gone := make(chan struct{})
		go func() {
			defer close(gone)
			if err := tx.ServePassive(ctx, ln); err != nil {
				t.Error(err)
			}
		}()
		target.Store(ln.Addr().String())
		stop = func() { cancel(); <-gone }
		t.Cleanup(stop)
		return stop
	}
	src1 := store.New()
	for _, h := range []string{"a", "b", "c", "d"} {
		src1.PutSys(status.ServerStatus{Host: h, Load1: 1})
	}
	stop1 := start(src1)
	recv, dst, reg, dials := countingReceiver(t, false, func() string { return target.Load().(string) })
	if err := recv.PullFrom([]string{"tx"}, time.Second); err != nil {
		t.Fatal(err)
	}
	assertMirrored(t, src1, dst)

	stop1() // closes the listener and the kept connection's far end
	src2 := store.New()
	src2.PutSys(status.ServerStatus{Host: "a", Load1: 9})
	start(src2)
	if err := recv.PullFrom([]string{"tx"}, time.Second); err != nil {
		t.Fatalf("pull across a transmitter restart: %v", err)
	}
	if r, ok := dst.GetSys("a"); !ok || r.Status.Load1 != 9 {
		t.Fatal("restarted transmitter's full snapshot was not adopted")
	}
	if got := dials.Load(); got != 2 {
		t.Errorf("%d dials across one restart, want 2", got)
	}
	if got := count(t, reg, "transport_recv_resyncs"); got != 1 {
		t.Errorf("restart adoption: resyncs = %d, want 1", got)
	}
	if got := count(t, reg, "transport_recv_torn"); got != 0 {
		t.Errorf("restart counted as torn: %d", got)
	}
	// The session now follows the new incarnation incrementally, on the
	// connection it redialed.
	src2.PutSys(status.ServerStatus{Host: "e", Load1: 2})
	if err := recv.PullFrom([]string{"tx"}, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := dst.GetSys("e"); !ok {
		t.Error("post-restart pull missed a new host")
	}
	if got := dials.Load(); got != 2 {
		t.Errorf("%d dials after the post-restart pull, want still 2", got)
	}
}

// A reply that dies inside a frame is torn on a reused connection as on
// a fresh one: counted, nothing of it applied — not even the complete
// delta frame ahead of the cut — and not retried. The connection is
// dropped, so the next pull redials and catches up.
func TestPullSessionTornReplyOnReusedConnection(t *testing.T) {
	src := seedDB()
	var conns atomic.Int64
	addr := startScriptedTx(t, src, false, func(c net.Conn, answer func(net.Conn) error) {
		if conns.Add(1) > 1 {
			for answer(c) == nil {
			}
			return
		}
		if answer(c) != nil {
			return
		}
		// The second request on the first connection gets the real
		// reply — a sys-delta frame and the mark — cut inside the mark's
		// header, and then the close.
		reply := memConn{new(bytes.Buffer)}
		if answer(reply) == nil {
			_, _ = c.Write(reply.Bytes()[:reply.Len()-3])
		}
	})
	recv, dst, reg, dials := countingReceiver(t, false, func() string { return addr })
	if err := recv.PullFrom([]string{"tx"}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	assertMirrored(t, src, dst)

	src.PutSys(status.ServerStatus{Host: "sagit", Bogomips: 1730.15})
	if err := recv.PullFrom([]string{"tx"}, 2*time.Second); err == nil {
		t.Fatal("pull whose reply was cut mid-frame reported success")
	}
	if got := count(t, reg, "transport_recv_torn"); got != 1 {
		t.Errorf("transport_recv_torn = %d after a reply cut mid-frame, want 1", got)
	}
	if _, ok := dst.GetSys("sagit"); ok {
		t.Error("the complete delta frame of a torn reply was applied")
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("%d dials after the torn reply, want 1: a torn reply is not retried", got)
	}

	if err := recv.PullFrom([]string{"tx"}, 2*time.Second); err != nil {
		t.Fatalf("pull after a torn reply: %v", err)
	}
	assertMirrored(t, src, dst)
	if got := dials.Load(); got != 2 {
		t.Errorf("%d dials after recovering, want 2: the torn connection is dropped", got)
	}
	if got := count(t, reg, "transport_recv_torn") + count(t, reg, "transport_recv_resyncs"); got != 1 {
		t.Errorf("torn+resyncs = %d after recovering, want 1", got)
	}
}

// TestPullSessionAppliesAllThreeDeltaFrames pins the one-buffer-per-frame
// rule: one reply carries a sys, a net and a sec delta frame, each with
// tombstones — byte slices into the frame they were parsed from — and
// all three are applied after the last was read. Sharing a buffer would
// have the later frames overwrite the keys the earlier views point at.
func TestPullSessionAppliesAllThreeDeltaFrames(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	src := store.NewWithClock(clock)
	keep := func() {
		src.PutSys(status.ServerStatus{Host: "helene", Load1: 0.5})
		src.PutNet(status.NetMetric{From: "m1", To: "m2", Delay: time.Millisecond, Bandwidth: 1e6})
		src.PutSec(status.SecLevel{Host: "helene", Level: 4})
	}
	keep()
	for i := 0; i < 20; i++ {
		src.PutSys(status.ServerStatus{Host: fmt.Sprintf("gone-sys-%02d", i)})
		src.PutNet(status.NetMetric{From: fmt.Sprintf("gone-net-%02d", i), To: "m2", Bandwidth: 1})
		src.PutSec(status.SecLevel{Host: fmt.Sprintf("gone-sec-%02d", i), Level: i})
	}
	reg := obs.NewRegistry()
	tx, err := NewTransmitterObs(src, nil, reg)
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
	recv, dst, _, _ := countingReceiver(t, false, func() string { return ln.Addr().String() })
	if err := recv.PullFrom([]string{"tx"}, time.Second); err != nil {
		t.Fatal(err)
	}
	assertMirrored(t, src, dst)

	// An hour on, only the kept records report: sixty tombstones, one
	// refresh per table, and a change in each.
	mu.Lock()
	now = now.Add(time.Hour)
	mu.Unlock()
	keep()
	src.PutSys(status.ServerStatus{Host: "sagit", Load1: 2})
	src.PutNet(status.NetMetric{From: "m2", To: "m1", Bandwidth: 2e6})
	src.PutSec(status.SecLevel{Host: "sagit", Level: 1})
	if got := src.ExpireSys(30 * time.Minute); len(got) != 20 {
		t.Fatalf("ExpireSys expired %d hosts, want 20", len(got))
	}
	if got := src.ExpireNet(30*time.Minute) + src.ExpireSec(30*time.Minute); got != 40 {
		t.Fatalf("ExpireNet+ExpireSec expired %d records, want 40", got)
	}
	if err := recv.PullFrom([]string{"tx"}, time.Second); err != nil {
		t.Fatal(err)
	}
	assertMirrored(t, src, dst)
	if dst.SysLen() != 2 || len(dst.Net()) != 2 || len(dst.Sec()) != 2 {
		t.Errorf("mirror holds %d/%d/%d records, want 2/2/2", dst.SysLen(), len(dst.Net()), len(dst.Sec()))
	}
	if !within(2*time.Second, func() bool {
		return count(t, reg, "transport_tx_snapshots") == 1 && count(t, reg, "transport_tx_delta_epochs") == 1
	}) {
		t.Errorf("second reply was not one delta epoch: snapshots=%d delta epochs=%d",
			count(t, reg, "transport_tx_snapshots"), count(t, reg, "transport_tx_delta_epochs"))
	}
}

// Concurrent pulls of one transmitter queue on its session: each asks
// from the base the one before reached, so none is discarded as out of
// order (resyncs stays 0) and all of them share one connection.
func TestPullSessionSerialisesConcurrentPulls(t *testing.T) {
	src, fleet := benchFleet(200)
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
	recv, dst, reg, dials := countingReceiver(t, false, func() string { return ln.Addr().String() })

	const pullers, rounds = 8, 25
	var wg sync.WaitGroup
	for p := 0; p < pullers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := fleet[(p*rounds+i)%len(fleet)]
				s.Load1 = float64(p*rounds + i + 1)
				src.PutSys(s)
				if err := recv.PullFrom([]string{"tx"}, 5*time.Second); err != nil {
					t.Errorf("puller %d round %d: %v", p, i, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := recv.PullFrom([]string{"tx"}, time.Second); err != nil {
		t.Fatal(err)
	}
	assertMirrored(t, src, dst)
	if got := count(t, reg, "transport_recv_resyncs"); got != 0 {
		t.Errorf("transport_recv_resyncs = %d under concurrent pulls, want 0", got)
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("%d pulls dialed %d times, want 1", pullers*rounds+1, got)
	}
}

// A pull reply whose delta does not continue the version the session
// mirrors is a gap, as on a push stream: counted as a resync, nothing of
// it applied, the kept connection dropped, and the base forgotten, so the
// next pull asks for everything (base 0, the empty payload).
func TestPullSessionForgetsItsBaseOnVersionGap(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	snapshot := func(load float64, ver uint64) []status.Frame {
		return []status.Frame{
			{Type: status.TypeSystem, Data: status.MarshalSystemBatch([]status.ServerStatus{{Host: "a", Load1: load}})},
			{Type: status.TypeSnapMark, Data: status.AppendSnapMark(nil, ver)},
		}
	}
	gap := &status.SysDelta{BaseVer: 15, NewVer: 16, Changed: []status.ServerStatus{{Host: "a", Load1: 7}}}
	// The transmitter's script: on the first connection a snapshot at 10,
	// then the delta at [15, 16]; on the second a snapshot at 20. It
	// reports every request's payload, and how the first connection ended.
	replies := [][][]status.Frame{
		{snapshot(1, 10), {
			{Type: status.TypeSysDelta, Data: status.AppendSysDelta(nil, gap)},
			{Type: status.TypeSnapMark, Data: status.AppendSnapMark(nil, 16)},
		}},
		{snapshot(3, 20)},
	}
	asked := make(chan []byte, 3)
	firstEnded := make(chan error, 1)
	serve := func(c net.Conn, script [][]status.Frame, first bool) {
		defer c.Close()
		if c.SetDeadline(time.Now().Add(5*time.Second)) != nil {
			return
		}
		for _, reply := range script {
			f, err := status.ReadFrame(c)
			if err != nil {
				return
			}
			asked <- f.Data
			for _, f := range reply {
				// The receiver may drop the connection at the gapped
				// delta, before the mark is written: what ends the
				// connection is read below.
				_ = status.WriteFrame(c, f)
			}
		}
		if first {
			_, err := status.ReadFrame(c)
			firstEnded <- err
		}
	}
	go func() {
		for i, script := range replies {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			serve(c, script, i == 0)
		}
	}()
	recv, dst, reg, dials := countingReceiver(t, false, func() string { return ln.Addr().String() })
	load := func() float64 {
		r, _ := dst.GetSys("a")
		return r.Status.Load1
	}
	if err := recv.PullFrom([]string{"tx"}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := <-asked; len(got) != 0 {
		t.Fatalf("first request carried %x, want the empty payload", got)
	}

	if err := recv.PullFrom([]string{"tx"}, 2*time.Second); !errors.Is(err, errResync) {
		t.Fatalf("pull whose reply skips versions 11–15: %v, want %v", err, errResync)
	}
	if got, err := status.ParsePullRequest(<-asked); err != nil || got != 10 {
		t.Fatalf("second request asked from %d (%v), want 10", got, err)
	}
	if got := count(t, reg, "transport_recv_resyncs"); got != 1 {
		t.Errorf("transport_recv_resyncs = %d after a version gap, want 1", got)
	}
	if got := load(); got != 1 {
		t.Errorf("the gapped delta reached the mirror: Load1 = %v, want 1", got)
	}
	if kept := keptConns(recv); kept != 0 {
		t.Errorf("%d connections kept after a version gap, want 0", kept)
	}
	select {
	case err := <-firstEnded:
		if err == nil {
			t.Error("the receiver sent another request on the gapped connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the gapped connection is still open")
	}

	if err := recv.PullFrom([]string{"tx"}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := <-asked; len(got) != 0 {
		t.Errorf("the pull after a gap carried %x, want the empty payload (base 0)", got)
	}
	if got := load(); got != 3 {
		t.Errorf("the snapshot after a gap was not applied: Load1 = %v, want 3", got)
	}
	if got := dials.Load(); got != 2 {
		t.Errorf("%d dials, want 2: the gap drops the kept connection", got)
	}
}

// keptConns counts the sessions of recv that hold a connection.
func keptConns(recv *Receiver) (n int) {
	recv.sessMu.Lock()
	defer recv.sessMu.Unlock()
	for _, s := range recv.sessions {
		if s.conn != nil {
			n++
		}
	}
	return n
}

// openFDs counts this process's descriptors, -1 where /proc has none.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// A receiver that only ever pulls has no Run to close it: Close has to
// return the listener and the kept connections, refuse later pulls
// without dialing, and leave no goroutine behind. Run's context ending
// does the same for a receiver that was run.
func TestReceiverCloseReleasesEverything(t *testing.T) {
	if openFDs() < 0 {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	stops := map[string]func(recv *Receiver) (stop func()){
		"Close": func(recv *Receiver) func() {
			return func() {
				if err := recv.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
				if err := recv.Close(); err != nil {
					t.Errorf("second Close: %v", err)
				}
			}
		},
		"Run context": func(recv *Receiver) func() {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); _ = recv.Run(ctx) }()
			return func() { cancel(); <-done }
		},
	}
	for name, arm := range stops {
		t.Run(name, func(t *testing.T) {
			goroutines, fds := runtime.NumGoroutine(), openFDs()
			srcs := []*store.DB{seedDB(), seedDB()}
			var addrs []string
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for _, src := range srcs {
				tx, err := NewTransmitterObs(src, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go tx.ServePassive(ctx, ln)
				addrs = append(addrs, ln.Addr().String())
			}
			var dials atomic.Int64
			recv, err := NewReceiverObs(store.New(), "127.0.0.1:0", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			recv.Dial = func(network, addr string) (net.Conn, error) {
				dials.Add(1)
				return net.DialTimeout(network, addr, 2*time.Second)
			}
			stop := arm(recv)
			for i := 0; i < 3; i++ {
				if err := recv.PullFrom(addrs, time.Second); err != nil {
					t.Fatal(err)
				}
			}
			if kept := keptConns(recv); kept != 2 {
				t.Fatalf("%d pull connections kept after pulling from two transmitters, want 2", kept)
			}
			stop()
			if err := recv.PullFrom(addrs, time.Second); err == nil {
				t.Error("pull on a closed receiver succeeded")
			}
			if got := dials.Load(); got != 2 {
				t.Errorf("%d dials, want 2: one per transmitter, none after Close", got)
			}
			cancel() // the transmitters: their listeners and their ends of the connections
			if !within(5*time.Second, func() bool { return runtime.NumGoroutine() <= goroutines && openFDs() <= fds }) {
				t.Errorf("teardown left %d goroutines (baseline %d) and %d descriptors (baseline %d)",
					runtime.NumGoroutine(), goroutines, openFDs(), fds)
			}
		})
	}
}

// A pull parked on a transmitter that never answers ends when the
// receiver is closed under it, and leaves no connection kept.
func TestReceiverCloseEndsPullInFlight(t *testing.T) {
	asked := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	addr := startScriptedTx(t, seedDB(), false, func(c net.Conn, _ func(net.Conn) error) {
		if _, err := status.ReadFrame(c); err == nil {
			close(asked)
			<-release
		}
	})
	recv, _, _, _ := countingReceiver(t, false, func() string { return addr })
	pulled := make(chan error, 1)
	go func() { pulled <- recv.PullFrom([]string{"tx"}, time.Minute) }()
	<-asked
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-pulled:
		if err == nil {
			t.Error("pull cut by Close reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pull in flight outlived Close")
	}
	if kept := keptConns(recv); kept != 0 {
		t.Errorf("%d connections still kept after Close cut the pull", kept)
	}
}
