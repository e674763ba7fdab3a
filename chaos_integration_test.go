package smartsock_test

// Chaos end-to-end: the full in-process testbed — probes, monitors,
// transmitter, receiver, wizard — runs over real loopback sockets
// while a seeded fault injector drops 20% of the probe datagrams and
// one virtual host crashes outright. The selection pipeline must shed
// the dead server within two status epochs and still hand the client
// a working connection to a survivor.
//
// Determinism: the injector's fate schedule is fixed by CHAOS_SEED
// (default 42), so a failure reproduces with the same seed. The
// assertions are additionally loss-rate-robust — they never require a
// specific datagram to survive, only that the aggregate behaves.

import (
	"context"
	"net"
	"testing"
	"time"

	"smartsock"
	"smartsock/internal/chaos"
	"smartsock/internal/obs"
	"smartsock/internal/testbed"
)

// echoServer runs a TCP echo accept loop and returns its address.
func echoServer(t *testing.T) (addr string, close func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1024)
				for {
					if err := c.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
						return
					}
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String(), func() { _ = ln.Close() }
}

func TestChaosSelectionSurvivesLossAndCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	seed := chaos.SeedFromEnv(42)
	const interval = 50 * time.Millisecond

	// Three virtual hosts whose names are the dialable addresses of
	// real echo listeners, so wizard replies can be connected to.
	var machines []testbed.Machine
	var closers []func()
	for i := 0; i < 3; i++ {
		addr, closeLn := echoServer(t)
		closers = append(closers, closeLn)
		machines = append(machines, testbed.Machine{
			Name: addr, CPU: "sim", Bogomips: 2000, RAMMB: 256,
			Speed: 1.0, Group: "lab",
		})
	}
	defer func() {
		for _, c := range closers {
			c()
		}
	}()

	// 20% send-side loss on every probe→monitor datagram.
	probeFaults := chaos.New(chaos.Config{Seed: seed, DropRate: 0.2})
	cluster, err := testbed.Boot(testbed.Options{
		Machines:        machines,
		ProbeInterval:   interval,
		MissedIntervals: 2, // evict a silent server after 2 status epochs
		ExpireAll:       true,
		MaxStatusAge:    4 * interval,
		ProbeFaults:     probeFaults,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every component serves to the end under the faults: none stops
	// before the teardown, and the crashed host's probe is no failure.
	defer func() {
		if err := cluster.Close(); err != nil {
			t.Errorf("a component stopped before the teardown: %v", err)
		}
	}()

	settleCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := cluster.WaitSettled(settleCtx, len(machines)); err != nil {
		t.Fatalf("pipeline never settled under 20%% loss: %v", err)
	}

	// Crash host 0: its probe stops and its listener closes, like a
	// machine losing power without deregistering.
	dead := machines[0].Name
	if err := cluster.CrashHost(dead); err != nil {
		t.Fatal(err)
	}
	closers[0]()

	// The client's wizard exchange runs over its own lossy link — the
	// "flapping wizard" leg — so request datagrams are dropped too and
	// the retry/backoff path is exercised.
	clientFaults := chaos.New(chaos.Config{Seed: seed + 1, DropRate: 0.2})
	client, err := smartsock.NewClient(cluster.WizardAddr(), &smartsock.ClientConfig{
		Timeout: 500 * time.Millisecond,
		Retries: 4,
		Dial: func(network, addr string) (net.Conn, error) {
			conn, err := net.Dial(network, addr)
			if err != nil {
				return nil, err
			}
			if network == "udp" {
				return clientFaults.WrapConn(conn), nil
			}
			return conn, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Within two status epochs (plus sweep and push latency) the dead
	// server must leave the candidate list. Poll the real wizard until
	// it answers without the corpse; the deadline is generous because
	// the bound under test is logical (MissedIntervals=2), not wall
	// time.
	const requirement = "host_memory_total > 0\n"
	deadline := time.Now().Add(15 * time.Second)
	var servers []string
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		servers, err = client.RequestServers(ctx, requirement, 3, smartsock.OptPartialOK)
		cancel()
		if err == nil && len(servers) > 0 && !containsString(servers, dead) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead server %s still selectable; last reply %v, err %v", dead, servers, err)
		}
		time.Sleep(interval)
	}
	for _, s := range servers {
		if s == dead {
			t.Fatalf("wizard still offers crashed host %s in %v", dead, servers)
		}
	}

	// End to end: Connect must hand back a live socket that echoes.
	ctx, cancelConnect := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelConnect()
	set, err := client.Connect(ctx, requirement, 1, smartsock.OptPartialOK)
	if err != nil {
		t.Fatalf("connect after crash: %v", err)
	}
	defer set.Close()
	if got := set.Addrs()[0]; got == dead {
		t.Fatalf("connected to the crashed host %s", got)
	}
	conn := set.Conns()[0]
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := conn.Read(buf); err != nil || string(buf) != "ping" {
		t.Fatalf("echo through selected server: %q, %v", buf, err)
	}

	// The surviving probes keep reporting through the injector, so at a
	// 20 % drop rate a drop is a few datagrams away at most — but a fast
	// run can get here before the seed's first one (seed 5 did, most runs).
	for deadline := time.Now().Add(10 * time.Second); probeFaults.Dropped() == 0; time.Sleep(interval) {
		if time.Now().After(deadline) {
			t.Fatal("fault injector never dropped a datagram; the chaos leg did not run")
		}
	}
}

// TestChaosTransmitterLinkResetRecovers clamps the transmitter →
// receiver stream with reset faults and checks the centralized push
// loop re-establishes itself: the wizard database keeps refreshing.
func TestChaosTransmitterLinkResetRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	seed := chaos.SeedFromEnv(42)
	const interval = 50 * time.Millisecond
	txFaults := chaos.New(chaos.Config{Seed: seed})

	addr, closeLn := echoServer(t)
	defer closeLn()
	cluster, err := testbed.Boot(testbed.Options{
		Machines: []testbed.Machine{{
			Name: addr, CPU: "sim", Bogomips: 2000, RAMMB: 256, Speed: 1, Group: "lab",
		}},
		ProbeInterval: interval,
		TxFaults:      txFaults,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := cluster.WaitSettled(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// Sever the live push stream; the transmitter must redial (with
	// backoff) and resume refreshing the wizard's replica.
	if n := txFaults.ResetAllStreams(); n == 0 {
		t.Fatal("no transmitter stream was wrapped")
	}
	time.Sleep(2 * interval)
	rec, ok := cluster.WizardDB.GetSys(addr)
	if !ok {
		t.Fatal("server record vanished from the wizard database")
	}
	before := rec.UpdatedAt
	deadline := time.Now().Add(10 * time.Second)
	for {
		if rec, ok := cluster.WizardDB.GetSys(addr); ok && rec.UpdatedAt.After(before) {
			return // the push loop recovered
		}
		if time.Now().After(deadline) {
			t.Fatal("wizard database stopped refreshing after a stream reset")
		}
		time.Sleep(interval)
	}
}

// TestChaosStreamResetMidDeltaResyncs cuts the push stream while it
// is carrying delta traffic and checks the delta protocol's recovery
// story end to end: the transmitter redials and re-anchors the
// receiver with a full snapshot, delta flow resumes, and a host that
// dies afterwards still disappears from the wizard's replica via a
// tombstone delta — proof the resynced stream carries deletions, not
// just refreshes.
func TestChaosStreamResetMidDeltaResyncs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	seed := chaos.SeedFromEnv(42)
	const interval = 50 * time.Millisecond
	txFaults := chaos.New(chaos.Config{Seed: seed})

	var machines []testbed.Machine
	var closers []func()
	for i := 0; i < 3; i++ {
		addr, closeLn := echoServer(t)
		closers = append(closers, closeLn)
		machines = append(machines, testbed.Machine{
			Name: addr, CPU: "sim", Bogomips: 2000, RAMMB: 256, Speed: 1, Group: "lab",
		})
	}
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	reg := obs.NewRegistry()
	fulls := func() uint64 { return reg.Snapshot().Counters["transport_tx_snapshots"] }
	deltas := func() uint64 { return reg.Snapshot().Counters["transport_tx_delta_epochs"] }
	cluster, err := testbed.Boot(testbed.Options{
		Machines:        machines,
		ProbeInterval:   interval,
		MissedIntervals: 2,
		ExpireAll:       true,
		MaxStatusAge:    4 * interval,
		TxFaults:        txFaults,
		Obs:             reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := cluster.WaitSettled(ctx, len(machines)); err != nil {
		t.Fatal(err)
	}

	// Probes re-report every interval, so once settled the stream
	// carries one refresh delta per epoch. Wait until the stream is
	// demonstrably in its delta regime before cutting it.
	deadline := time.Now().Add(10 * time.Second)
	for deltas() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("push stream never entered the delta regime")
		}
		time.Sleep(interval)
	}

	// Cut the stream mid-delta. The transmitter must notice, redial
	// and open the new stream with a full snapshot (the resync), after
	// which the replica keeps refreshing.
	fullBefore, deltasBefore := fulls(), deltas()
	if n := txFaults.ResetAllStreams(); n == 0 {
		t.Fatal("no transmitter stream was wrapped")
	}
	deadline = time.Now().Add(10 * time.Second)
	for fulls() == fullBefore {
		if time.Now().After(deadline) {
			t.Fatal("transmitter never re-anchored the stream with a full snapshot")
		}
		time.Sleep(interval)
	}
	deadline = time.Now().Add(10 * time.Second)
	for deltas() <= deltasBefore {
		if time.Now().After(deadline) {
			t.Fatal("delta flow never resumed after the resync snapshot")
		}
		time.Sleep(interval)
	}

	// Kill a host on the resynced stream: its expiry tombstone must
	// ride a delta all the way into the wizard's replica.
	dead := machines[2].Name
	if err := cluster.CrashHost(dead); err != nil {
		t.Fatal(err)
	}
	closers[2]()
	deadline = time.Now().Add(15 * time.Second)
	for {
		if _, ok := cluster.WizardDB.GetSys(dead); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("crashed host %s never left the wizard replica via a tombstone delta", dead)
		}
		time.Sleep(interval)
	}
	// The survivors must be untouched by the deletion.
	for _, m := range machines[:2] {
		if _, ok := cluster.WizardDB.GetSys(m.Name); !ok {
			t.Fatalf("survivor %s vanished alongside the tombstoned host", m.Name)
		}
	}
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
