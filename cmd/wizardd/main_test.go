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

// A signal's cancel stops the receiver, the wizard and the debug
// endpoint, and run returns only once each has closed what it held.
func TestRunStopsEveryComponentOnCancel(t *testing.T) {
	goroutines, fds := baseline(t)
	*listen, *recvListen, *debugAddr = freeUDP(t), "127.0.0.1:0", "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx) }()

	c, err := net.Dial("udp", *listen)
	if err != nil {
		t.Fatal(err)
	}
	req := proto.MarshalRequest(&proto.Request{Seq: 1, ServerNum: 1, Detail: "1 > 0"})
	for deadline := time.Now().Add(5 * time.Second); ; {
		if time.Now().After(deadline) {
			t.Fatal("the wizard never answered")
		}
		_, _ = c.Write(req)
		if err := c.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(make([]byte, 2048)); err == nil {
			break
		}
	}
	c.Close()

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
