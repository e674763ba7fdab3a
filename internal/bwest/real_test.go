package bwest

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

func startEcho(t *testing.T) *EchoServer {
	t.Helper()
	srv, err := NewEchoServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go srv.Run(ctx)
	return srv
}

func TestLiveProbeRTT(t *testing.T) {
	srv := startEcho(t)
	p, err := NewUDPProber(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, size := range []int{16, 200, 1400, 8000} {
		rtt := p.ProbeRTT(size)
		if rtt <= 0 || rtt > time.Second {
			t.Errorf("payload %d: RTT = %v", size, rtt)
		}
	}
}

func TestLiveProbeTinyPayloadPadded(t *testing.T) {
	// Payloads below the 16-byte header are padded up, not rejected.
	srv := startEcho(t)
	p, err := NewUDPProber(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if rtt := p.ProbeRTT(1); rtt <= 0 || rtt > time.Second {
		t.Errorf("RTT = %v", rtt)
	}
}

func TestLiveProbeTimeoutLooksLikeLoss(t *testing.T) {
	// Probing a port where nothing listens must yield a huge RTT (the
	// min-filter then discards it), not a hang or a panic.
	p, err := NewUDPProber("127.0.0.1:1", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	start := time.Now()
	rtt := p.ProbeRTT(100)
	if rtt < time.Hour {
		t.Errorf("lost probe produced plausible RTT %v", rtt)
	}
	if time.Since(start) > time.Second {
		t.Error("timeout not honoured")
	}
}

func TestLiveProbeIgnoresStaleEchoes(t *testing.T) {
	// First probe times out (we freeze the echo), its echo arrives
	// during the second probe's window and must be ignored because the
	// sequence number differs.
	srv := startEcho(t)
	p, err := NewUDPProber(srv.Addr(), 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Normal probes around it still measure fine.
	if rtt := p.ProbeRTT(64); rtt > time.Second {
		t.Errorf("probe 1 lost: %v", rtt)
	}
	if rtt := p.ProbeRTT(64); rtt > time.Second {
		t.Errorf("probe 2 lost: %v", rtt)
	}
}

func TestEchoServerIgnoresRunts(t *testing.T) {
	srv := startEcho(t)
	p, err := NewUDPProber(srv.Addr(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// A runt datagram from a raw socket gets no echo; the prober's
	// next full probe still works.
	raw, err := NewUDPProber(srv.Addr(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if rtt := p.ProbeRTT(64); rtt > time.Second {
		t.Errorf("probe after runt lost: %v", rtt)
	}
}

func TestLiveEstimatorRunsOverLoopback(t *testing.T) {
	// Loopback has no meaningful bandwidth to estimate (T2−T1 is noise
	// scale), but the estimator must behave sanely: either a value or
	// a clean error, never a hang.
	srv := startEcho(t)
	p, err := NewUDPProber(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Estimate(p, StreamConfig{S1: 1600, S2: 2900, Runs: 2, ProbesPerSize: 4})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("live estimate hung")
	}
}

// A read error that is not the context's own close still ends Run with
// its socket closed and nothing left waiting on the context: the
// socket is not held open until a cancel that may never come.
func TestEchoServerRunClosesItsSocketOnError(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	srv, err := NewEchoServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := srv.conn.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Run(ctx); err == nil {
		t.Fatal("Run returned nil on a read past its deadline")
	}
	if err := srv.conn.SetReadDeadline(time.Time{}); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("after Run returned the socket is still open (SetReadDeadline: %v)", err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("Run returned and left %d goroutines, %d before it", runtime.NumGoroutine(), goroutines)
		}
	}
}
