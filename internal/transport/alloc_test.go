package transport

import (
	"bytes"
	"testing"

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
	idleEpochAllocCeiling    = 46 // BENCH_transport.json delta-idle-1000h
	refreshEpochAllocCeiling = 48 // BENCH_transport.json delta-refresh-1000h
)

// allocHarness wires a transmitter to a receiver through an in-memory
// conn, exactly like BenchmarkTransportEpoch, and returns a func that
// runs one full push epoch (encode, wire, decode, apply).
func allocHarness(t *testing.T, fleetSize int) (*store.DB, []status.ServerStatus, func()) {
	t.Helper()
	src, fleet := benchFleet(fleetSize)
	reg := obs.NewRegistry()
	tx, err := NewTransmitterObs(src, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := NewReceiverObs(store.New(), "127.0.0.1:0", nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	conn := memConn{new(bytes.Buffer)}
	var sess pushSession
	var cs connState
	cs.lag = recv.lagFor("alloc-test")
	epoch := func() {
		// The pin measures the steady delta path; keep the periodic full
		// resync (every resyncEvery epochs) from ever coming due, so it
		// cannot pollute the average.
		sess.sinceFull = 0
		if err := tx.pushEpoch(conn, &sess); err != nil {
			t.Fatal(err)
		}
		for conn.Len() > 0 {
			var f status.Frame
			f, cs.buf, err = status.ReadFrameInto(conn, cs.buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := recv.apply(f, &cs); err != nil {
				t.Fatal(err)
			}
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
	_, _, epoch := allocHarness(t, 1000)
	if got := testing.AllocsPerRun(200, epoch); got > idleEpochAllocCeiling {
		t.Errorf("idle delta epoch allocates %.1f, pinned at %d (BENCH_transport.json delta-idle-1000h)",
			got, idleEpochAllocCeiling)
	}
}

func TestAllocsRefreshEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc averages need a quiet run")
	}
	src, fleet, epoch := allocHarness(t, 1000)
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
