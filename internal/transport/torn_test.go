package transport

// Regression tests for mid-frame stream death. Historically the
// receiver treated a connection that died halfway through a frame
// exactly like a clean close — silently — and a failed distributed
// pull could leak half a snapshot into the merge next to a healthy
// transmitter's reply.

import (
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"smartsock/internal/obs"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// TestChaosReceiverDistinguishesTornFromCleanClose pins the EOF
// semantics: a transmitter closing between frames is normal churn; a
// stream dying inside a frame is a fault and must be counted.
func TestChaosReceiverDistinguishesTornFromCleanClose(t *testing.T) {
	db := store.New()
	reg := obs.NewRegistry()
	r, err := NewReceiverObs(db, "127.0.0.1:0", nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	received := func() uint64 { return count(t, reg, "transport_recv_frames") }
	torn := func() uint64 { return count(t, reg, "transport_recv_torn") }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)

	// Clean close: one complete epoch — a batch frame and its mark —
	// then EOF at a frame boundary.
	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	frame := status.Frame{Type: status.TypeSystem, Data: status.MarshalSystemBatch(nil)}
	if err := status.WriteFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
	if err := status.WriteFrame(conn, status.Frame{Type: status.TypeSnapMark, Data: status.AppendSnapMark(nil, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return received() == 1 })
	if torn() != 0 {
		t.Fatalf("clean close counted as torn (torn=%d)", torn())
	}

	// Torn close: a header promising 100 payload bytes, then death —
	// the wire image of a crashed transmitter. Wherever the cut falls
	// after the first byte it is a torn stream: 5 bytes into the
	// payload, exactly at the boundary between header and payload, or
	// part-way through the header.
	hdr := make([]byte, 5)
	hdr[0] = byte(status.TypeSystem)
	binary.BigEndian.PutUint32(hdr[1:], 100)
	for i, wire := range [][]byte{append(hdr[:5:5], "stub!"...), hdr, hdr[:3]} {
		conn, err := net.Dial("tcp", r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool { return torn() == uint64(i+1) })
	}
	if received() != 1 {
		t.Fatalf("torn frame was applied (received=%d)", received())
	}
}

// TestChaosPullDropsPartialSnapshots starts one healthy passive
// transmitter and one whose reply never completes; the merged load
// must contain only the healthy records — the partial server list must
// not ride along. Both pull protocols hold a reply back until it is
// complete: at the snap mark, or in thesis mode at one batch frame of
// each table, which three frames of the same table are not.
func TestChaosPullDropsPartialSnapshots(t *testing.T) {
	phantom := status.Frame{
		Type: status.TypeSystem,
		Data: status.MarshalSystemBatch([]status.ServerStatus{{Host: "phantom"}}),
	}
	// What the broken transmitter sends after a first full frame naming
	// "phantom", before it closes the connection.
	breaks := []struct {
		name string
		rest func(c net.Conn)
		torn bool
	}{
		{"dies mid-frame", func(c net.Conn) {
			// Start the network frame but die inside it: a header
			// promising 50 payload bytes followed by 3.
			hdr := make([]byte, 5)
			hdr[0] = byte(status.TypeNetwork)
			binary.BigEndian.PutUint32(hdr[1:], 50)
			_, _ = c.Write(append(hdr, []byte("die")...))
		}, true},
		{"three system frames", func(c net.Conn) {
			_ = status.WriteFrame(c, phantom)
			_ = status.WriteFrame(c, phantom)
		}, false},
	}
	pullModes(t, func(t *testing.T, compat bool) {
		for _, br := range breaks {
			t.Run(br.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()

				// Healthy passive transmitter over a database holding "solid".
				txDB := store.New()
				txDB.PutSys(status.ServerStatus{Host: "solid", MemTotal: 1})
				tx, err := NewTransmitterObs(txDB, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				tx.Compat = compat
				healthyLn, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go tx.ServePassive(ctx, healthyLn)

				brokenLn, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer brokenLn.Close()
				go func() {
					c, err := brokenLn.Accept()
					if err != nil {
						return
					}
					defer c.Close()
					if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
						return
					}
					if _, err := status.ReadFrame(c); err != nil {
						return
					}
					_ = status.WriteFrame(c, phantom)
					br.rest(c)
				}()

				recvDB := store.New()
				reg := obs.NewRegistry()
				recv, err := NewReceiverObs(recvDB, "127.0.0.1:0", nil, reg)
				if err != nil {
					t.Fatal(err)
				}
				recv.Compat = compat
				// The broken transmitter first, so its partial batch would land in
				// the merge ahead of the healthy one if the leak regressed.
				if err := recv.PullFrom([]string{brokenLn.Addr().String(), healthyLn.Addr().String()}, 2*time.Second); err != nil {
					t.Fatalf("pull with one healthy transmitter failed: %v", err)
				}
				if _, ok := recvDB.GetSys("solid"); !ok {
					t.Fatal("healthy transmitter's record missing after merge")
				}
				if _, ok := recvDB.GetSys("phantom"); ok {
					t.Fatal("partial snapshot leaked into the merged load")
				}
				if got := count(t, reg, "transport_recv_torn"); (got != 0) != br.torn {
					t.Errorf("transport_recv_torn = %d, want torn counted: %v", got, br.torn)
				}
			})
		}
	})
}
