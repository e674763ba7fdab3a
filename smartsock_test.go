package smartsock_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"smartsock"
	"smartsock/internal/core"
	"smartsock/internal/proto"
	"smartsock/internal/status"
	"smartsock/internal/store"
	"smartsock/internal/testbed"
	"smartsock/internal/wizard"
)

// echoService is a trivial line-echo TCP service standing in for the
// "actual service program running on the servers" (§3.6.2 step 4).
func echoService(t *testing.T, ctx context.Context) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				sc := bufio.NewScanner(c)
				for sc.Scan() {
					fmt.Fprintf(c, "echo: %s\n", sc.Text())
				}
			}(conn)
		}
	}()
	return ln
}

// bootServiceCluster starts a full pipeline whose server "names" are
// dialable service addresses, so Connect can complete end to end.
func bootServiceCluster(t *testing.T, ctx context.Context, specs []testbed.Machine) (*testbed.Cluster, []string) {
	t.Helper()
	var machines []testbed.Machine
	var addrs []string
	for _, spec := range specs {
		ln := echoService(t, ctx)
		m := spec
		m.Name = ln.Addr().String()
		machines = append(machines, m)
		addrs = append(addrs, m.Name)
	}
	cluster, err := testbed.Boot(testbed.Options{Machines: machines, ProbeInterval: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	wctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	if err := cluster.WaitSettled(wctx, len(machines)); err != nil {
		t.Fatal(err)
	}
	return cluster, addrs
}

func TestConnectReturnsWorkingSockets(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cluster, _ := bootServiceCluster(t, ctx, []testbed.Machine{
		{Bogomips: 4771, RAMMB: 512, Speed: 1},
		{Bogomips: 4771, RAMMB: 512, Speed: 1},
		{Bogomips: 1730, RAMMB: 128, Speed: 1},
	})
	client, err := smartsock.NewClient(cluster.WizardAddr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := client.Connect(ctx, "host_cpu_bogomips > 4000", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.Len() != 2 {
		t.Fatalf("connected to %d servers, want 2", set.Len())
	}
	// Every returned socket is live: round-trip a line through each.
	for i, conn := range set.Conns() {
		fmt.Fprintf(conn, "hello %d\n", i)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			t.Fatalf("socket %d: %v", i, err)
		}
		if want := fmt.Sprintf("echo: hello %d\n", i); line != want {
			t.Errorf("socket %d echoed %q", i, line)
		}
	}
}

func TestConnectSkipsDeadServers(t *testing.T) {
	// One registered server's service is gone (its listener context is
	// dead before Connect dials), but the probe still reports it, so
	// the wizard offers it. Connect's over-ask must skip it and fill
	// the set from the live servers.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	deadLn := echoService(t, ctx)
	deadLn.Close()

	live1 := echoService(t, ctx)
	live2 := echoService(t, ctx)
	machines := []testbed.Machine{
		{Name: deadLn.Addr().String(), Bogomips: 4000, RAMMB: 256, Speed: 1},
		{Name: live1.Addr().String(), Bogomips: 4000, RAMMB: 256, Speed: 1},
		{Name: live2.Addr().String(), Bogomips: 4000, RAMMB: 256, Speed: 1},
	}
	cluster, err := testbed.Boot(testbed.Options{Machines: machines, ProbeInterval: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	wctx, wcancel := context.WithTimeout(ctx, 20*time.Second)
	defer wcancel()
	if err := cluster.WaitSettled(wctx, 3); err != nil {
		t.Fatal(err)
	}
	client, err := smartsock.NewClient(cluster.WizardAddr(), &smartsock.ClientConfig{DialTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	set, err := client.Connect(ctx, "1 > 0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.Len() != 2 {
		t.Fatalf("connected to %d servers, want 2 live ones", set.Len())
	}
	for _, addr := range set.Addrs() {
		if addr == deadLn.Addr().String() {
			t.Error("Connect handed back the dead server")
		}
	}
}

// TestConnectDeniesRefusedIPv6Servers: the wizard's records name bare
// IPv6 hosts and every server of the first reply refuses, so Connect's
// second round denies them by the addresses it dialed. The wizard must
// match those to its records — and to no others — and offer the one
// left.
func TestConnectDeniesRefusedIPv6Servers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	db := store.New()
	for i := 1; i <= 4; i++ {
		db.PutSys(status.ServerStatus{Host: fmt.Sprintf("fe80::%d", i), CPUIdle: 0.9})
	}
	sel, err := core.New(db, core.Config{ServicePort: 9000})
	if err != nil {
		t.Fatal(err)
	}
	wz, err := wizard.New(wizard.Config{Addr: "127.0.0.1:0", Selector: sel})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- wz.Run(ctx) }()
	defer func() {
		cancel()
		<-done
	}()

	const up = "[fe80::4]:9000"
	var mu sync.Mutex
	var dialed []string
	client, err := smartsock.NewClient(wz.Addr(), &smartsock.ClientConfig{Dial: func(network, addr string) (net.Conn, error) {
		if network != "tcp" {
			return net.Dial(network, addr)
		}
		mu.Lock()
		dialed = append(dialed, addr)
		mu.Unlock()
		if addr != up {
			return nil, errors.New("connection refused")
		}
		conn, peer := net.Pipe()
		t.Cleanup(func() { peer.Close() })
		return conn, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	// One server asked for, three offered (the over-ask), all refuse.
	set, err := client.Connect(ctx, "host_cpu_free > 0.5", 1)
	if err != nil {
		t.Fatalf("%v (dialed %v)", err, dialed)
	}
	defer set.Close()
	if got := set.Addrs(); !reflect.DeepEqual(got, []string{up}) {
		t.Errorf("connected to %v, want %v", got, []string{up})
	}
	if want := []string{"[fe80::1]:9000", "[fe80::2]:9000", "[fe80::3]:9000", up}; !reflect.DeepEqual(dialed, want) {
		t.Errorf("dialed %v, want each server once: %v", dialed, want)
	}
}

// TestConnectRecoveryKeepsTheUserBlacklist: the requirement denies "a"
// itself, and asks for MaxServers servers, one more than the first
// reply holds besides "b", which refuses. Connect's second round denies
// "b" in a slot of its own, so "a" stays denied and is never dialed,
// and the reply makes room for the last good server — also when the
// requirement assigns all five slots of Appendix B.2.
func TestConnectRecoveryKeepsTheUserBlacklist(t *testing.T) {
	for name, req := range map[string]string{
		"slot1":     "host_cpu_free > 0.5\nuser_denied_host1 = \"a\"\n",
		"all-slots": "host_cpu_free > 0.5\nuser_denied_host1 = \"z1\"\nuser_denied_host2 = \"z2\"\nuser_denied_host3 = \"a\"\nuser_denied_host4 = \"z4\"\nuser_denied_host5 = \"z5\"\n",
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			db := store.New()
			good := make([]string, smartsock.MaxServers)
			for i := range good {
				good[i] = fmt.Sprintf("g%02d", i)
			}
			for _, h := range append([]string{"a", "b"}, good...) {
				db.PutSys(status.ServerStatus{Host: h, CPUIdle: 0.9})
			}
			sel, err := core.New(db, core.Config{ServicePort: 9000})
			if err != nil {
				t.Fatal(err)
			}
			wz, err := wizard.New(wizard.Config{Addr: "127.0.0.1:0", Selector: sel})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- wz.Run(ctx) }()
			defer func() {
				cancel()
				<-done
			}()

			var mu sync.Mutex
			var dialed []string
			client, err := smartsock.NewClient(wz.Addr(), &smartsock.ClientConfig{Dial: func(network, addr string) (net.Conn, error) {
				if network != "tcp" {
					return net.Dial(network, addr)
				}
				mu.Lock()
				dialed = append(dialed, addr)
				mu.Unlock()
				if addr == "b:9000" {
					return nil, errors.New("connection refused")
				}
				conn, peer := net.Pipe()
				t.Cleanup(func() { peer.Close() })
				return conn, nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			set, err := client.Connect(ctx, req, smartsock.MaxServers, smartsock.OptPartialOK)
			if err != nil {
				t.Fatalf("%v (dialed %v)", err, dialed)
			}
			defer set.Close()
			var want []string
			for _, h := range good {
				want = append(want, h+":9000")
			}
			if got := set.Addrs(); !reflect.DeepEqual(got, want) {
				t.Errorf("connected to %v, want %v", got, want)
			}
			if want := append([]string{"b:9000"}, want...); !reflect.DeepEqual(dialed, want) {
				t.Errorf("dialed %v, want %v: the user's denied host must stay denied, the refused one be denied", dialed, want)
			}
		})
	}
}

func TestRequestServersShortfallError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cluster, _ := bootServiceCluster(t, ctx, []testbed.Machine{
		{Bogomips: 4771, RAMMB: 512, Speed: 1},
	})
	client, err := smartsock.NewClient(cluster.WizardAddr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.RequestServers(ctx, "host_cpu_bogomips > 4000", 5); err == nil {
		t.Error("expected shortfall error without OptPartialOK")
	}
	servers, err := client.RequestServers(ctx, "host_cpu_bogomips > 4000", 5, smartsock.OptPartialOK)
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 1 {
		t.Errorf("servers = %v", servers)
	}
}

func TestRequestServersSyntaxErrorSurfaces(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cluster, _ := bootServiceCluster(t, ctx, []testbed.Machine{
		{Bogomips: 1000, RAMMB: 128, Speed: 1},
	})
	client, err := smartsock.NewClient(cluster.WizardAddr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.RequestServers(ctx, "a <", 1)
	if err == nil || !strings.Contains(err.Error(), "wizard") {
		t.Errorf("err = %v, want a wizard-reported parse error", err)
	}
}

func TestSocketSetRedial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cluster, _ := bootServiceCluster(t, ctx, []testbed.Machine{
		{Bogomips: 4000, RAMMB: 256, Speed: 1},
	})
	client, err := smartsock.NewClient(cluster.WizardAddr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := client.Connect(ctx, "1 > 0", 1, smartsock.OptPartialOK)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if err := set.Redial(ctx, 0); err != nil {
		t.Fatalf("Redial: %v", err)
	}
	fmt.Fprintln(set.Conns()[0], "after redial")
	set.Conns()[0].SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := bufio.NewReader(set.Conns()[0]).ReadString('\n')
	if err != nil || line != "echo: after redial\n" {
		t.Errorf("redialed socket broken: %q, %v", line, err)
	}
	if err := set.Redial(ctx, 5); err == nil {
		t.Error("Redial accepted an out-of-range index")
	}
}

// flakyWizard answers the i-th datagram with handle's reply, or not at
// all when handle returns nil, exercising the client's retry path.
func flakyWizard(t *testing.T, handle func(i int, req *proto.Request) *proto.Reply) string {
	t.Helper()
	return udpWizard(t, func(i int, req *proto.Request) []*proto.Reply {
		if reply := handle(i, req); reply != nil {
			return []*proto.Reply{reply}
		}
		return nil
	})
}

// udpWizard answers the i-th datagram with every reply handle returns
// for it, in order.
func udpWizard(t *testing.T, handle func(i int, req *proto.Request) []*proto.Reply) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, 64*1024)
		for i := 0; ; i++ {
			n, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			req, err := proto.UnmarshalRequest(buf[:n])
			if err != nil {
				continue
			}
			for _, reply := range handle(i, req) {
				out, err := proto.MarshalReply(reply)
				if err != nil {
					continue
				}
				conn.WriteToUDP(out, from)
			}
		}
	}()
	return conn.LocalAddr().String()
}

func TestClientRetriesLostReply(t *testing.T) {
	addr := flakyWizard(t, func(i int, req *proto.Request) *proto.Reply {
		if i == 0 {
			return nil // drop the first request entirely
		}
		return &proto.Reply{Seq: req.Seq, Servers: []string{"survivor"}}
	})
	client, err := smartsock.NewClient(addr, &smartsock.ClientConfig{
		Timeout: 100 * time.Millisecond,
		Retries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	servers, err := client.RequestServers(context.Background(), "1 > 0", 1)
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if len(servers) != 1 || servers[0] != "survivor" {
		t.Errorf("servers = %v", servers)
	}
}

func TestClientIgnoresWrongSequenceReplies(t *testing.T) {
	addr := flakyWizard(t, func(i int, req *proto.Request) *proto.Reply {
		if i == 0 {
			// A reply for some other request must be ignored (§3.6.2
			// step 3)... then the client's resend gets the right one.
			return &proto.Reply{Seq: req.Seq + 99, Servers: []string{"imposter"}}
		}
		return &proto.Reply{Seq: req.Seq, Servers: []string{"genuine"}}
	})
	client, err := smartsock.NewClient(addr, &smartsock.ClientConfig{
		Timeout: 150 * time.Millisecond,
		Retries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	servers, err := client.RequestServers(context.Background(), "1 > 0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if servers[0] != "genuine" {
		t.Errorf("accepted mismatched reply: %v", servers)
	}
}

func TestClientTimesOutAgainstDeadWizard(t *testing.T) {
	client, err := smartsock.NewClient("127.0.0.1:1", &smartsock.ClientConfig{
		Timeout: 50 * time.Millisecond,
		Retries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := client.RequestServers(context.Background(), "1 > 0", 1); err == nil {
		t.Error("dead wizard produced an answer")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout did not bound the exchange")
	}
}

func TestRequestValidation(t *testing.T) {
	client, err := smartsock.NewClient("127.0.0.1:1120", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.RequestServers(ctx, "1 > 0", 0); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := client.RequestServers(ctx, "1 > 0", smartsock.MaxServers+1); err == nil {
		t.Error("accepted n above the protocol cap")
	}
	if _, err := smartsock.NewClient("", nil); err == nil {
		t.Error("accepted empty wizard address")
	}
}

func TestLoadRequirement(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.req")
	os.WriteFile(good, []byte("host_cpu_free > 0.9 # fast\n"), 0o644)
	text, err := smartsock.LoadRequirement(good)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "host_cpu_free") {
		t.Error("requirement text lost")
	}
	bad := filepath.Join(dir, "bad.req")
	os.WriteFile(bad, []byte("a <\n"), 0o644)
	if _, err := smartsock.LoadRequirement(bad); err == nil {
		t.Error("accepted a syntactically broken file")
	}
	if _, err := smartsock.LoadRequirement(filepath.Join(dir, "missing.req")); err == nil {
		t.Error("accepted a missing file")
	}
}

func TestCheckRequirement(t *testing.T) {
	if err := smartsock.CheckRequirement("host_cpu_free > 0.9\n"); err != nil {
		t.Errorf("valid requirement rejected: %v", err)
	}
	if err := smartsock.CheckRequirement("a ! b"); err == nil {
		t.Error("invalid requirement accepted")
	}
}

func TestVariableCatalogues(t *testing.T) {
	vars := smartsock.ServerVariables()
	if len(vars) < 22 {
		t.Errorf("ServerVariables lists %d, thesis defines 22", len(vars))
	}
	if got := smartsock.UserVariables(); len(got) != 10 {
		t.Errorf("UserVariables lists %d, thesis defines 10", len(got))
	}
	fns := smartsock.Functions()
	want := map[string]bool{"sin": false, "cos": false, "exp": false, "log10": false}
	for _, f := range fns {
		if _, ok := want[f]; ok {
			want[f] = true
		}
	}
	for f, seen := range want {
		if !seen {
			t.Errorf("Functions() missing Appendix B.4 builtin %q", f)
		}
	}
}

func TestDistributedModeEndToEnd(t *testing.T) {
	// The whole pipeline in distributed (pull-per-request) mode.
	machines := []testbed.Machine{
		{Name: "alpha", Bogomips: 4771, RAMMB: 512, Speed: 1},
		{Name: "beta", Bogomips: 1730, RAMMB: 128, Speed: 1},
	}
	cluster, err := testbed.Boot(testbed.Options{
		Machines:      machines,
		ProbeInterval: 30 * time.Millisecond,
		Distributed:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	// In distributed mode the wizard DB fills only on request, so wait
	// for the monitor-side db instead.
	deadline := time.Now().Add(10 * time.Second)
	for cluster.DB.SysLen() < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if cluster.DB.SysLen() < 2 {
		t.Fatal("monitor db never filled")
	}
	client, err := smartsock.NewClient(cluster.WizardAddr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	servers, err := client.RequestServers(ctx, "host_cpu_bogomips > 4000", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 1 || servers[0] != "alpha" {
		t.Errorf("servers = %v, want [alpha]", servers)
	}
}
