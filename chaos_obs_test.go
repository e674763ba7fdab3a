package smartsock_test

// Chaos × observability: the obs registry must tell the truth under
// injected faults. Each test boots the in-process testbed with a
// shared registry, injects a specific failure with a seeded schedule,
// and reconciles the registry's snapshot against both the fault
// injector's own ledger and the components' legacy accessors — the
// counters an operator reads off -debug must be the same numbers the
// components report in process.

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"smartsock/internal/chaos"
	"smartsock/internal/obs"
	"smartsock/internal/overload"
	"smartsock/internal/proto"
	"smartsock/internal/testbed"
)

func chaosMachines(n int) []testbed.Machine {
	ms := make([]testbed.Machine, n)
	for i := range ms {
		ms[i] = testbed.Machine{
			Name: fmt.Sprintf("chaos-%d", i), CPU: "sim",
			Bogomips: 2000 + float64(i)*100, RAMMB: 256, Speed: 1, Group: "lab",
		}
	}
	return ms
}

// reconcile polls until want() == the named obs counter, tolerating
// in-flight increments between the two reads.
func reconcile(t *testing.T, reg *obs.Registry, name string, want func() uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		legacy := want()
		snap := reg.Snapshot()
		if got := snap.Counters[name]; got == legacy {
			return
		} else if time.Now().After(deadline) {
			t.Errorf("obs %s = %d, legacy accessor = %d", name, got, legacy)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosObsCountersMatchInjectedFaults injects three distinct
// faults — a push-stream reset, a mid-frame stream tear, a crashed
// host — and checks each leaves exactly the fingerprint the obs layer
// promises: the reset surfaces as transmitter redials (a FIN-closed
// stream ends at a frame boundary, so it is neither torn nor a
// resync — the fresh connection re-anchors with a full snapshot), the
// tear surfaces as precisely one torn-stream count, the crash as a
// monitor expiry, and the transport/monitor counters agree with the
// accessors that remain.
func TestChaosObsCountersMatchInjectedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	seed := chaos.SeedFromEnv(42)
	const interval = 50 * time.Millisecond
	txFaults := chaos.New(chaos.Config{Seed: seed})
	reg := obs.NewRegistry()

	machines := chaosMachines(3)
	cluster, err := testbed.Boot(testbed.Options{
		Machines:        machines,
		ProbeInterval:   interval,
		MissedIntervals: 2,
		ExpireAll:       true,
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

	// Fault 1: sever the live push stream. The transmitter must go
	// through its backoff-and-redial path, and that path is counted.
	redialsBefore := reg.Snapshot().Counters["transport_tx_redials"]
	if n := txFaults.ResetAllStreams(); n == 0 {
		t.Fatal("no transmitter stream was wrapped")
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Counters["transport_tx_redials"] == redialsBefore {
		if time.Now().After(deadline) {
			t.Fatal("stream reset never surfaced as a transmitter redial")
		}
		time.Sleep(interval)
	}

	// Fault 2: a stream that dies mid-frame. Two bytes of a five-byte
	// frame header and then nothing is the torn-stream case the
	// receiver distinguishes from a clean disconnect — exactly one
	// torn count, no more.
	torn := func() uint64 { return reg.Snapshot().Counters["transport_recv_torn"] }
	tornBefore := torn()
	tear, err := net.Dial("tcp", cluster.Recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tear.Write([]byte{0x01, 0x00}); err != nil {
		t.Fatal(err)
	}
	if err := tear.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for torn() != tornBefore+1 {
		if time.Now().After(deadline) {
			t.Fatalf("mid-frame tear counted %d times, want 1", torn()-tornBefore)
		}
		time.Sleep(interval)
	}

	// Fault 3: crash a host. Its silence must surface as exactly the
	// monitor expiry the MissedIntervals policy promises.
	expired := func() uint64 { return reg.Snapshot().Counters["monitor_expired"] }
	expiredBefore := expired()
	dead := machines[0].Name
	if err := cluster.CrashHost(dead); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for expired() == expiredBefore {
		if time.Now().After(deadline) {
			t.Fatal("crashed host never surfaced as a monitor expiry")
		}
		time.Sleep(interval)
	}

	// Reconcile: every obs counter equals its component's own ledger,
	// where the component still keeps an accessor beside the registry
	// (the transport's other counters are read from the registry only).
	for name, legacy := range map[string]func() uint64{
		"transport_recv_torn":    cluster.Recv.Torn,
		"transport_recv_resyncs": cluster.Recv.Resyncs,
		"monitor_reports":        cluster.Monitor().Received,
	} {
		reconcile(t, reg, name, legacy)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["transport_recv_torn"]; got == 0 {
		t.Error("torn-stream counter still zero after an injected reset")
	}
	if got := snap.Counters["monitor_expired"]; got == 0 {
		t.Error("expiry counter still zero after a crashed host")
	}
	// The push stream's epoch-lag series must exist for the loopback
	// source, and once re-settled the receiver is caught up: lag 0.
	lagName := `transport_epoch_lag{source="127.0.0.1"}`
	lag, ok := snap.Gauges[lagName]
	if !ok {
		t.Fatalf("no %s gauge; have %v", lagName, snap.Gauges)
	}
	deadline = time.Now().Add(10 * time.Second)
	for lag != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("epoch lag stuck at %d after stream recovery", lag)
		}
		time.Sleep(interval)
		lag = reg.Snapshot().Gauges[lagName]
	}
}

// TestChaosObsStaleDroppedWithoutExpiry pins the other eviction path:
// with monitor expiry effectively disabled and a tight MaxStatusAge,
// a crashed host is shed by the selector's staleness filter alone.
// The obs fingerprint is the mirror image of the crash test's —
// core_stale_dropped counts up while monitor_expired stays zero — and
// the wizard's latency histograms classify every answer under an
// outcome, so their counts sum to the requests made.
func TestChaosObsStaleDroppedWithoutExpiry(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	const interval = 50 * time.Millisecond
	reg := obs.NewRegistry()
	machines := chaosMachines(3)
	cluster, err := testbed.Boot(testbed.Options{
		Machines:        machines,
		ProbeInterval:   interval,
		MissedIntervals: 1000, // the monitor never gives up on a host
		MaxStatusAge:    3 * interval,
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
	if err := cluster.CrashHost(machines[0].Name); err != nil {
		t.Fatal(err)
	}

	req := &proto.Request{
		Seq: 1, ServerNum: uint16(len(machines)),
		Option: proto.OptPartialOK,
		Detail: "host_memory_total > 0\n",
	}
	answers := uint64(0)
	deadline := time.Now().Add(15 * time.Second)
	for reg.Snapshot().Counters["core_stale_dropped"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("selector never dropped the crashed host's stale record")
		}
		if reply := cluster.Wizard().Answer(ctx, req); reply == nil {
			t.Fatal("nil reply from in-process wizard")
		}
		answers++
		time.Sleep(interval)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["monitor_expired"]; got != 0 {
		t.Errorf("monitor expired %d hosts; staleness filtering should have acted alone", got)
	}
	// Outcome histograms partition the answers: their counts sum to
	// the requests asked, nothing double-counted or dropped.
	var observed uint64
	for name, h := range snap.Histograms {
		if len(name) > 15 && name[:15] == "wizard_latency_" {
			observed += h.Count
		}
	}
	if observed != answers {
		t.Errorf("latency histograms observed %d answers, asked %d", observed, answers)
	}
}

// TestChaosObsOverloadBypassReconciles pins the overload plane's
// priority invariant under a request storm: transport frames (the
// status distribution the wizard answers from) are never queued and
// never shed, and every one is recorded as a bypass admission — so
// overload_bypass must reconcile exactly with transport_recv_frames
// even while the gate is actively rejecting a runaway request source
// next to them.
func TestChaosObsOverloadBypassReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	const interval = 50 * time.Millisecond
	reg := obs.NewRegistry()
	// A tiny per-source budget so the storm below reliably trips the
	// limiter: shedding must be happening while bypass reconciles.
	gate := overload.New(overload.Config{
		MaxQueue: 64,
		Rate:     50,
		Obs:      reg,
	})
	cluster, err := testbed.Boot(testbed.Options{
		Machines:      chaosMachines(3),
		ProbeInterval: interval,
		Overload:      gate,
		Obs:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := cluster.WaitSettled(ctx, 3); err != nil {
		t.Fatal(err)
	}

	// Storm the wizard from one source well past its 50/s budget,
	// draining replies so nothing wedges.
	conn, err := net.Dial("udp", cluster.WizardAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		buf := make([]byte, 64*1024)
		for {
			if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
				return
			}
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	req := &proto.Request{ServerNum: 1, Detail: "host_memory_total > 0\n"}
	deadline := time.Now().Add(10 * time.Second)
	for seq := uint32(1); gate.RateLimited() == 0; seq++ {
		if time.Now().After(deadline) {
			t.Fatal("storm never tripped the per-source rate limiter")
		}
		req.Seq = seq
		if _, err := conn.Write(proto.MarshalRequest(req)); err != nil {
			t.Fatal(err)
		}
	}

	// The invariant, while frames keep flowing and requests keep being
	// rejected: every received transport frame is a bypass admission.
	reconcile(t, reg, "overload_bypass", func() uint64 { return reg.Snapshot().Counters["transport_recv_frames"] })
	snap := reg.Snapshot()
	if snap.Counters["overload_bypass"] == 0 {
		t.Error("no transport frames flowed; the bypass invariant was tested against nothing")
	}
	if snap.Counters["overload_ratelimited"] == 0 {
		t.Error("overload_ratelimited stayed zero through the storm")
	}
}
