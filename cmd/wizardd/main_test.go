package main

import (
	"context"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"smartsock/internal/proto"
	"smartsock/internal/status"
	"smartsock/internal/store"
	"smartsock/internal/transport"
)

// openFDs counts this process's descriptors, -1 where /proc has none.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// baseline warms the poller (the first socket of a process opens its
// descriptors too) and counts goroutines and descriptors.
func baseline(t *testing.T) (goroutines, fds int) {
	t.Helper()
	if openFDs() < 0 {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	warm, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()
	return runtime.NumGoroutine(), openFDs()
}

// released fails the test unless run has left no descriptor open and
// its goroutines drain back to the baseline.
func released(t *testing.T, goroutines, fds int) {
	t.Helper()
	if got := openFDs(); got > fds {
		t.Errorf("run returned with %d descriptors open, %d before it", got, fds)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("run returned and left %d goroutines, %d before it", runtime.NumGoroutine(), goroutines)
		}
	}
}

// freeUDP returns a loopback UDP address nothing is bound to.
func freeUDP(t *testing.T) string {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return c.LocalAddr().String()
}

// await returns run's error, or fails the test if run is still going
// after 5 s.
func await(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("run still going 5 s after its end")
		return nil
	}
}

// ask sends the wizard run started one-server requests until a reply
// satisfies done, and fails the test if none has after 5 s.
func ask(t *testing.T, done func(*proto.Reply) bool) {
	t.Helper()
	c, err := net.Dial("udp", *listen)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := proto.MarshalRequest(&proto.Request{Seq: 1, ServerNum: 1, Detail: "1 > 0"})
	buf := make([]byte, 2048)
	for deadline := time.Now().Add(5 * time.Second); ; {
		if time.Now().After(deadline) {
			t.Fatal("the wizard never gave the reply awaited")
		}
		_, _ = c.Write(req)
		if err := c.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if n, err := c.Read(buf); err == nil {
			if reply, err := proto.UnmarshalReply(buf[:n]); err == nil && done(reply) {
				return
			}
		}
	}
}

// freeTCP returns a loopback TCP address nothing listens on.
func freeTCP(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// A signal's cancel stops the receiver, the wizard and the debug
// endpoint, and run returns only once each has closed what it held.
func TestRunStopsEveryComponentOnCancel(t *testing.T) {
	goroutines, fds := baseline(t)
	*listen, *recvListen, *debugAddr = freeUDP(t), "127.0.0.1:0", "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx) }()

	ask(t, func(*proto.Reply) bool { return true })

	cancel()
	if err := await(t, done); err != nil {
		t.Fatalf("run after a cancel = %v, want nil", err)
	}
	released(t, goroutines, fds)
}

// A component that cannot start after others have ends run with its
// name, and what had started is stopped and closed before run returns.
func TestRunNamesTheComponentThatFailsToStart(t *testing.T) {
	held, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	goroutines, fds := baseline(t)
	*listen, *recvListen, *debugAddr = held.LocalAddr().String(), "127.0.0.1:0", "127.0.0.1:0"
	done := make(chan error, 1)
	go func() { done <- run(context.Background()) }()
	if err := await(t, done); err == nil || !strings.Contains(err.Error(), "wizard") {
		t.Fatalf("run with the request port taken = %v, want the wizard's error", err)
	}
	released(t, goroutines, fds)
}

// Under -compat the receiver run started takes the thesis wire: a
// transmitter speaking it pushes one epoch (the whole status database),
// a request then selects the host it carried, and a cancel stops
// everything, the pushed connection included.
func TestRunCompatTakesAThesisPush(t *testing.T) {
	goroutines, fds := baseline(t)
	defer func(q int, r float64) { *compat, *maxQueue, *rateLimit = false, q, r }(*maxQueue, *rateLimit)
	*compat, *listen, *recvListen, *debugAddr = true, freeUDP(t), freeTCP(t), ""
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx) }()
	// An answer, any answer: the receiver listens before the wizard does.
	ask(t, func(*proto.Reply) bool { return true })

	src := store.New()
	src.PutSys(status.ServerStatus{Host: "thesis1"})
	tx, err := transport.NewTransmitterObs(src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx.Compat = true
	pushCtx, stopPush := context.WithCancel(ctx)
	pushed := make(chan error, 1)
	// The first round pushes at once; the next is an hour away.
	go func() { pushed <- tx.RunActive(pushCtx, *recvListen, time.Hour) }()
	ask(t, func(r *proto.Reply) bool { return len(r.Servers) == 1 && r.Servers[0] == "thesis1" })
	stopPush()
	<-pushed

	cancel()
	if err := await(t, done); err != nil {
		t.Fatalf("run after a cancel = %v, want nil", err)
	}
	released(t, goroutines, fds)
}
