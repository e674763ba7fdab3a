package main

import (
	"context"
	"io"
	"net"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"smartsock/internal/status"
	"smartsock/internal/store"
	"smartsock/internal/sysinfo"
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

// A signal's cancel stops the system monitor, its TCP listener, the
// passive transmitter and the debug endpoint, and run returns only once
// each has closed what it held.
func TestRunStopsEveryComponentOnCancel(t *testing.T) {
	goroutines, fds := baseline(t)
	*listen, *enableTCP, *passive, *debugAddr = freeUDP(t), true, "127.0.0.1:0", freeTCP(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx) }()

	report(t, "h1")

	cancel()
	if err := await(t, done); err != nil {
		t.Fatalf("run after a cancel = %v, want nil", err)
	}
	released(t, goroutines, fds)
}

// report sends host's probe reports to the monitor run started until
// the debug endpoint counts one.
func report(t *testing.T, host string) {
	t.Helper()
	c, err := net.Dial("udp", *listen)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := sysinfo.Idle(host, 2000, 256)
	for deadline := time.Now().Add(5 * time.Second); !counted.MatchString(metrics(t)); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the monitor never counted a report")
		}
		_, _ = c.Write(status.EncodeReport(&r))
	}
}

// counted matches a metrics dump in which the monitor has ingested a
// report.
var counted = regexp.MustCompile(`(?m)^monitor_reports [1-9]`)

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

// metrics reads the debug endpoint's plaintext dump, empty while it
// does not answer yet.
func metrics(t *testing.T) string {
	t.Helper()
	c, err := net.Dial("tcp", *debugAddr)
	if err != nil {
		return ""
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(c, "GET /metrics HTTP/1.0\r\n\r\n"); err != nil {
		return ""
	}
	b, _ := io.ReadAll(c)
	return string(b)
}

// The transmitter's port is taken after the monitor has started: run
// ends with the transmitter's name, and the monitor is stopped and its
// sockets closed before run returns.
func TestRunNamesTheComponentThatFailsToStart(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	goroutines, fds := baseline(t)
	*listen, *enableTCP, *passive, *debugAddr = "127.0.0.1:0", true, held.Addr().String(), "127.0.0.1:0"
	done := make(chan error, 1)
	go func() { done <- run(context.Background()) }()
	if err := await(t, done); err == nil || !strings.HasPrefix(err.Error(), "transmitter: ") {
		t.Fatalf("run with the pull port taken = %v, want the transmitter's error", err)
	}
	released(t, goroutines, fds)
}

// Under -compat -passive the transmitter run started speaks the thesis
// wire: a receiver speaking it pulls a full snapshot holding the
// reported host, twice over one connection, and a cancel stops
// everything.
func TestRunCompatServesAThesisPull(t *testing.T) {
	goroutines, fds := baseline(t)
	defer func() { *compat = false }()
	*compat, *listen, *enableTCP, *passive, *debugAddr = true, freeUDP(t), false, freeTCP(t), freeTCP(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx) }()
	report(t, "thesis1")

	dst := store.New()
	recv, err := transport.NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	recv.Compat = true
	err = recv.PullFrom([]string{*passive}, 2*time.Second)
	if err == nil {
		// The second pull reads on the kept connection: a snap mark a
		// delta-wire transmitter left after the first would fail it.
		err = recv.PullFrom([]string{*passive}, 2*time.Second)
	}
	if cerr := recv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("thesis pull: %v", err)
	}
	snap := dst.PinSys()
	_, found := snap.Find("thesis1")
	snap.Unpin()
	if !found {
		t.Fatalf("the thesis pull mirrored %d hosts and not thesis1", dst.SysLen())
	}

	cancel()
	if err := await(t, done); err != nil {
		t.Fatalf("run after a cancel = %v, want nil", err)
	}
	released(t, goroutines, fds)
}
