package transport

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"smartsock/internal/obs"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// Alloc-regression pins for the delta push path, with the obs
// instrumentation live. The ceilings are the committed
// BENCH_transport.json figures (allocs_per_op for the matching
// benchmark case): the observability layer must ride along for free,
// so any increase over the recorded steady state fails here before it
// reaches the benchmark dashboards.
const (
	idleEpochAllocCeiling    = 15 // BENCH_transport.json delta-idle-1000h
	refreshEpochAllocCeiling = 17 // BENCH_transport.json delta-refresh-1000h
)

// allocHarness wires a transmitter to a receiver through an in-memory
// conn, exactly like BenchmarkTransportEpoch, and returns a func that
// runs one full push epoch (pushEpoch, wire, readEpoch, applyEpoch).
func allocHarness(t *testing.T, fleetSize int, compat bool) (*store.DB, []status.ServerStatus, func()) {
	t.Helper()
	src, fleet := benchFleet(fleetSize)
	reg := obs.NewRegistry()
	tx, err := NewTransmitterObs(src, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	tx.Compat = compat
	recv, err := NewReceiverObs(store.New(), "127.0.0.1:0", nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	recv.Compat = compat
	conn := memConn{new(bytes.Buffer)}
	var sess pushSession
	s := source{lag: recv.lagFor("alloc-test")}
	epoch := func() {
		// The pin measures the steady delta path; keep the periodic full
		// resync (every resyncEvery epochs) from ever coming due, so it
		// cannot pollute the average.
		sess.sinceFull = 0
		if err := tx.pushEpoch(conn, &sess); err != nil {
			t.Fatal(err)
		}
		for conn.Len() > 0 {
			if err := recv.readEpoch(conn, &s); err != nil {
				t.Fatal(err)
			}
			recv.applyEpoch(&s)
			s.release()
		}
	}
	// Prime the stream: the first epoch is always a full snapshot, and
	// the encode/decode buffers settle at their steady-state capacity.
	epoch()
	epoch()
	return src, fleet, epoch
}

func TestAllocsIdleEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc averages need a quiet run")
	}
	_, _, epoch := allocHarness(t, 1000, false)
	if got := testing.AllocsPerRun(200, epoch); got > idleEpochAllocCeiling {
		t.Errorf("idle delta epoch allocates %.1f, pinned at %d (BENCH_transport.json delta-idle-1000h)",
			got, idleEpochAllocCeiling)
	}
}

func TestAllocsRefreshEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc averages need a quiet run")
	}
	src, fleet, epoch := allocHarness(t, 1000, false)
	if got := testing.AllocsPerRun(100, func() {
		for i := range fleet {
			src.PutSys(fleet[i])
		}
		epoch()
	}); got > refreshEpochAllocCeiling {
		t.Errorf("refresh delta epoch allocates %.1f, pinned at %d (BENCH_transport.json delta-refresh-1000h)",
			got, refreshEpochAllocCeiling)
	}
}

// fullSnapshotAllocCeiling pins the epoch the delta pins above never
// run: a full three-frame snapshot of 1000 hosts (every Compat epoch,
// and the first and every resyncEvery-th epoch of a delta stream),
// encoded, read and loaded. The measured 2023 are the receiving end's —
// two per host: its interface name and its record in the mirror (the
// host name is the one the mirror already holds); three frame buffers,
// which keepBytes has it release after a snapshot — and none is the
// transmitter's: the encode buffer is the connection's. Encoding one
// table into a fresh buffer costs 26 more (the buffer growing to a
// snapshot's size), and a batch decode that stopped interning host
// names 1000 more; both fail here.
const fullSnapshotAllocCeiling = 2025

func TestAllocsFullSnapshotEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc averages need a quiet run")
	}
	_, _, epoch := allocHarness(t, 1000, true)
	if got := testing.AllocsPerRun(50, epoch); got > fullSnapshotAllocCeiling {
		t.Errorf("full snapshot epoch allocates %.1f on both ends, pinned at %d", got, fullSnapshotAllocCeiling)
	}
}

// steadyPullAllocCeiling pins a steady distributed-mode pull over a real
// loopback connection — 64 of 1000 hosts changed since the last one —
// on both ends at once (AllocsPerRun counts the whole process, the
// passive transmitter's goroutine included): the 64 PutSys calls, the
// transmitter's request read, ChangedSince and encode, and the
// receiver's parse and apply. It measures 3, and none is a name, a
// buffer, a view or a connection: the changed hosts' names are the ones
// the mirror already keys them by, the interface name is the one the
// view's slot held, and the session keeps the rest. A pull that dialed,
// dropped its buffers, decoded into zeroed records or allocated the 64
// names again costs dozens more and fails here.
const steadyPullAllocCeiling = 3

func TestAllocsSteadyPull(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc averages need a quiet run")
	}
	src, fleet := benchFleet(1000)
	tx, err := NewTransmitterObs(src, nil, obs.NewRegistry())
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
	recv, err := NewReceiverObs(store.New(), "127.0.0.1:0", nil, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	addrs := []string{ln.Addr().String()}
	epoch := 0
	pull := func() {
		epoch++
		for j := 0; j < 64; j++ {
			s := fleet[(epoch*64+j)%len(fleet)]
			s.Load1 = float64(epoch)
			src.PutSys(s)
		}
		if err := recv.PullFrom(addrs, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// The first pull is the full snapshot, whose buffers are released;
	// the second sizes the kept ones.
	pull()
	pull()
	if got := testing.AllocsPerRun(200, pull); got > steadyPullAllocCeiling {
		t.Errorf("steady 64-of-1000 pull allocates %.1f on both ends, pinned at %d", got, steadyPullAllocCeiling)
	} else {
		t.Logf("steady 64-of-1000 pull: %.1f allocs", got)
	}
}
