package smartsock_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartsock"
	"smartsock/internal/core"
	"smartsock/internal/obs"
	"smartsock/internal/overload"
	"smartsock/internal/proto"
	"smartsock/internal/status"
	"smartsock/internal/store"
	"smartsock/internal/wizard"
)

// trackedConn is a wizard socket that remembers being closed.
type trackedConn struct {
	net.Conn
	closed atomic.Bool
}

func (c *trackedConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// countingDial is a ClientConfig.Dial hook that records every wizard
// socket the client opens.
type countingDial struct {
	mu    sync.Mutex
	conns []*trackedConn
}

func (d *countingDial) dial(network, addr string) (net.Conn, error) {
	conn, err := net.Dial(network, addr)
	if err != nil || network != "udp" {
		return conn, err
	}
	tc := &trackedConn{Conn: conn}
	d.mu.Lock()
	d.conns = append(d.conns, tc)
	d.mu.Unlock()
	return tc, nil
}

// opened returns the wizard sockets dialed so far, in dial order.
func (d *countingDial) opened() []*trackedConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*trackedConn(nil), d.conns...)
}

// echoWizard answers every request with its own requirement text as the
// one server, so a caller can tell its reply from anyone else's.
func echoWizard(t *testing.T) string {
	return flakyWizard(t, func(_ int, req *proto.Request) *proto.Reply {
		return &proto.Reply{Seq: req.Seq, Servers: []string{req.Detail}}
	})
}

func ask(t *testing.T, client *smartsock.Client, requirement string) {
	t.Helper()
	servers, err := client.RequestServers(context.Background(), requirement, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 1 || servers[0] != requirement {
		t.Fatalf("asked %q, got %v", requirement, servers)
	}
}

// TestClientKeepsOneWizardSocket: sequential exchanges share one
// wizard socket; the idle release closes it and the next exchange
// dials a fresh one.
func TestClientKeepsOneWizardSocket(t *testing.T) {
	var d countingDial
	client, err := smartsock.NewClient(echoWizard(t), &smartsock.ClientConfig{Dial: d.dial})
	if err != nil {
		t.Fatal(err)
	}
	defer client.ReleaseIdle()
	for i := 0; i < 50; i++ {
		ask(t, client, fmt.Sprintf("%d > 0", i))
	}
	conns := d.opened()
	if len(conns) != 1 {
		t.Fatalf("50 sequential exchanges dialed %d wizard sockets, want 1", len(conns))
	}
	if conns[0].closed.Load() {
		t.Fatal("the kept socket was closed between exchanges")
	}
	client.ReleaseIdle()
	if !conns[0].closed.Load() {
		t.Error("the idle release left the kept socket open")
	}
	ask(t, client, "after release")
	if n := len(d.opened()); n != 2 {
		t.Errorf("the exchange after the release made %d dials, want 1", n-1)
	}
}

// TestClientSkipsStaleReplyOnKeptSocket: a duplicate of the first
// reply waits on the kept socket; the second exchange skips it by
// sequence number and takes its own reply without a resend.
func TestClientSkipsStaleReplyOnKeptSocket(t *testing.T) {
	var requests atomic.Int32
	addr := udpWizard(t, func(i int, req *proto.Request) []*proto.Reply {
		requests.Add(1)
		reply := &proto.Reply{Seq: req.Seq, Servers: []string{fmt.Sprintf("answer %d", i)}}
		if i == 0 {
			return []*proto.Reply{reply, reply}
		}
		return []*proto.Reply{reply}
	})
	var d countingDial
	client, err := smartsock.NewClient(addr, &smartsock.ClientConfig{Dial: d.dial})
	if err != nil {
		t.Fatal(err)
	}
	defer client.ReleaseIdle()
	for i := 0; i < 2; i++ {
		servers, err := client.RequestServers(context.Background(), "1 > 0", 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("answer %d", i); len(servers) != 1 || servers[0] != want {
			t.Fatalf("exchange %d got %v, want [%s]", i, servers, want)
		}
	}
	if n := requests.Load(); n != 2 {
		t.Errorf("the wizard saw %d requests, want 2 (no resend)", n)
	}
	if n := len(d.opened()); n != 1 {
		t.Errorf("dialed %d wizard sockets, want 1: the stale copy was never on the kept one", n)
	}
}

// TestClientClosesSocketOnFailure: an exchange that fails closes its
// socket instead of keeping it, so the next exchange dials afresh.
func TestClientClosesSocketOnFailure(t *testing.T) {
	t.Run("dead port", func(t *testing.T) {
		var d countingDial
		client, err := smartsock.NewClient("127.0.0.1:1", &smartsock.ClientConfig{
			Timeout: 50 * time.Millisecond,
			Retries: -1,
			Dial:    d.dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := client.RequestServers(context.Background(), "1 > 0", 1); err == nil {
				t.Fatal("dead wizard produced an answer")
			}
		}
		conns := d.opened()
		if len(conns) != 2 {
			t.Errorf("two failed exchanges dialed %d sockets, want 2", len(conns))
		}
		for i, c := range conns {
			if !c.closed.Load() {
				t.Errorf("socket %d of a failed exchange left open", i)
			}
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		addr := flakyWizard(t, func(i int, req *proto.Request) *proto.Reply {
			if i == 1 {
				cancel() // the caller gives up while the reply is outstanding
				return nil
			}
			return &proto.Reply{Seq: req.Seq, Servers: []string{req.Detail}}
		})
		var d countingDial
		client, err := smartsock.NewClient(addr, &smartsock.ClientConfig{
			Timeout: 50 * time.Millisecond,
			Dial:    d.dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer client.ReleaseIdle()
		ask(t, client, "kept")
		if _, err := client.RequestServers(ctx, "1 > 0", 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if conns := d.opened(); len(conns) != 1 || !conns[0].closed.Load() {
			t.Fatal("the cancelled exchange did not close the kept socket it took")
		}
		ask(t, client, "after cancel")
		if n := len(d.opened()); n != 2 {
			t.Errorf("the exchange after the cancel made %d dials, want 1", n-1)
		}
	})
}

// TestClientConcurrentExchanges: goroutines sharing one Client each get
// their own answer, and after the idle release no socket is left open.
func TestClientConcurrentExchanges(t *testing.T) {
	var d countingDial
	client, err := smartsock.NewClient(echoWizard(t), &smartsock.ClientConfig{Dial: d.dial})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				want := fmt.Sprintf("%d > %d", g, i)
				servers, err := client.RequestServers(context.Background(), want, 1)
				if err != nil || len(servers) != 1 || servers[0] != want {
					t.Errorf("asked %q, got %v, %v", want, servers, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	client.ReleaseIdle()
	for i, c := range d.opened() {
		if !c.closed.Load() {
			t.Errorf("wizard socket %d still open after the release", i)
		}
	}
}

// TestRateLimitSeesOneSourcePerClient: the wizard's per-source limiter
// keys on address and port, so a Client's requests — one kept socket —
// draw on one bucket and a back-to-back run of them is limited.
func TestRateLimitSeesOneSourcePerClient(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	db := store.New()
	db.PutSys(status.ServerStatus{Host: "alpha", CPUIdle: 0.9})
	sel, err := core.New(db, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	wz, err := wizard.New(wizard.Config{
		Addr:     "127.0.0.1:0",
		Selector: sel,
		Overload: overload.New(overload.Config{MaxQueue: 1024, Rate: 4, Obs: reg}),
		Obs:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- wz.Run(ctx) }()
	defer func() {
		cancel()
		<-done
	}()

	// No resends: a limited request is answered "overloaded" and ends.
	client, err := smartsock.NewClient(wz.Addr(), &smartsock.ClientConfig{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.ReleaseIdle()
	for i := 0; i < 20; i++ {
		// A limited request fails; the counter below is the check.
		_, _ = client.RequestServers(ctx, "host_cpu_free > 0.5", 1)
	}
	if n := reg.Snapshot().Counters["overload_ratelimited"]; n == 0 {
		t.Error("20 back-to-back requests from one Client were never rate-limited (a bucket of 8 at 4/s)")
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestRequestServersAllocatesOnlyItsAnswer: against a wizard that
// allocates nothing itself, a steady-state RequestServers allocates
// only the answer its caller keeps — the names' one string and their
// slice. The request bytes and the reply buffer are pooled, the reply
// is decoded in place and the resend backoff is never built.
func TestRequestServersAllocatesOnlyItsAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under the race detector")
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	servers := []string{"alpha:9000", "beta:9000"}
	answer, err := proto.MarshalReply(&proto.Reply{Servers: servers})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 2048)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if n >= 5 {
				copy(answer[1:5], buf[1:5]) // echo the sequence number
				_, _ = conn.WriteToUDPAddrPort(answer, from)
			}
		}
	}()
	client, err := smartsock.NewClient(conn.LocalAddr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.ReleaseIdle()
	ctx := context.Background()
	var got []string
	allocs := testing.AllocsPerRun(200, func() {
		if got, err = client.RequestServers(ctx, "host_cpu_free > 0.5", 2); err != nil {
			t.Fatal(err)
		}
	})
	if len(got) != 2 || got[0] != servers[0] || got[1] != servers[1] {
		t.Fatalf("RequestServers = %v, want %v", got, servers)
	}
	if allocs > 2 {
		t.Errorf("a steady-state RequestServers allocates %v objects, want at most 2 (the names and their slice)", allocs)
	}
}
