package transport

// Golden wire tests: the exact bytes a transmitter and a receiver
// exchange for seedDB() are checked into testdata/, so any change to a
// wire — frame order, an extra or a missing snap mark, a base version
// in the request — fails loudly and shows up in review as a fixture
// diff. thesis_*.hex is the Compat wire, the promise to thesis-era
// peers; delta_*.hex is the default one, a snapshot epoch and a delta
// epoch in each mode, every epoch closed by its mark.
//
// Regenerate after an *intentional* format change with:
//
//	go test ./internal/transport -run Golden -update

import (
	"bytes"
	"context"
	"encoding/hex"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartsock/internal/status"
	"smartsock/internal/store"
)

var update = flag.Bool("update", false, "rewrite golden wire fixtures")

// checkGolden compares got with testdata/<name>.hex (whitespace in the
// fixture is ignored), or rewrites the fixture under -update. It
// returns the fixture's bytes.
func checkGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name+".hex")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for s := hex.EncodeToString(got); len(s) > 0; s = s[min(64, len(s)):] {
			b.WriteString(s[:min(64, len(s))] + "\n")
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return got
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (run with -update to create): %v", err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatalf("fixture %s is not valid hex: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from fixture:\n got %x\nwant %x", name, got, want)
	}
	return want
}

// readEpoch reads one thesis snapshot — a system, a network and a
// security frame, in that order — and returns its exact bytes.
func readEpoch(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	var raw bytes.Buffer
	tee := io.TeeReader(conn, &raw)
	for _, want := range []status.RecordType{status.TypeSystem, status.TypeNetwork, status.TypeSecurity} {
		f, err := status.ReadFrame(tee)
		if err != nil {
			t.Fatalf("reading %v frame: %v", want, err)
		}
		if f.Type != want {
			t.Fatalf("frame type %v, want %v", f.Type, want)
		}
	}
	return raw.Bytes()
}

// TestGoldenThesisPushEpoch pins one Compat push epoch: three batch
// frames, and the next epoch follows it directly — no snap mark, no
// delta — with the same bytes, the database being unchanged.
func TestGoldenThesisPushEpoch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tx, err := NewTransmitterObs(seedDB(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx.Compat = true
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go tx.RunActive(ctx, ln.Addr().String(), 10*time.Millisecond)

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	epoch := checkGolden(t, "thesis_push_epoch", readEpoch(t, conn))
	next := make([]byte, len(epoch))
	if _, err := io.ReadFull(conn, next); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(next, epoch) {
		t.Errorf("second epoch differs from the first:\n got %x\nwant %x", next, epoch)
	}
}

// recConn records both directions of one connection.
type recConn struct {
	net.Conn
	wrote, read bytes.Buffer
}

func (c *recConn) Write(b []byte) (int, error) {
	c.wrote.Write(b)
	return c.Conn.Write(b)
}

func (c *recConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read.Write(b[:n])
	return n, err
}

// TestGoldenThesisPullExchange pins one Compat pull: the receiver
// writes an empty TypeRequest and is satisfied by exactly three batch
// frames; the transmitter, asked twice on one connection, answers
// twice with those frames and nothing — no snap mark — in between.
func TestGoldenThesisPullExchange(t *testing.T) {
	src := seedDB()
	tx, err := NewTransmitterObs(src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx.Compat = true
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go tx.ServePassive(ctx, ln)

	dst := store.New()
	recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	recv.Compat = true
	var rec *recConn
	recv.Dial = func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		rec = &recConn{Conn: c}
		return rec, err
	}
	if err := recv.PullFrom([]string{ln.Addr().String()}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	assertMirrored(t, src, dst)
	request := checkGolden(t, "thesis_pull_request", rec.wrote.Bytes())
	reply := checkGolden(t, "thesis_pull_reply", rec.read.Bytes())

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(append([]byte{}, request...), request...)); err != nil {
		t.Fatal(err)
	}
	first := readEpoch(t, conn)
	second := readEpoch(t, conn)
	if !bytes.Equal(first, reply) || !bytes.Equal(second, reply) {
		t.Errorf("transmitter's answers differ from the fixture:\n 1st %x\n 2nd %x\nwant %x", first, second, reply)
	}
}

// moveAllThree changes one record of each table of a seedDB, so the
// next delta epoch carries all three delta frames.
func moveAllThree(src *store.DB) {
	src.PutSys(status.ServerStatus{Host: "helene", Load1: 0.9, Bogomips: 3394.76})
	src.PutNet(status.NetMetric{From: "m1", To: "m2", Delay: 9 * time.Millisecond, Bandwidth: 95e6})
	src.PutSec(status.SecLevel{Host: "helene", Level: 1})
}

// TestGoldenDeltaPushEpoch pins the default push stream: a full
// snapshot closed by its mark, then one delta epoch — three delta
// frames sharing one [base, new] pair — closed by its own. A receiver
// fed the fixture's bytes mirrors the source.
func TestGoldenDeltaPushEpoch(t *testing.T) {
	src := seedDB()
	tx, err := NewTransmitterObs(src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := memConn{new(bytes.Buffer)}
	var sess pushSession
	if err := tx.pushEpoch(wire, &sess); err != nil {
		t.Fatal(err)
	}
	moveAllThree(src)
	if err := tx.pushEpoch(wire, &sess); err != nil {
		t.Fatal(err)
	}
	stream := checkGolden(t, "delta_push_epoch", wire.Bytes())

	dst := store.New()
	recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go recv.Run(ctx)
	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { r, ok := dst.GetSec("helene"); return ok && r.Level.Level == 1 })
	assertMirrored(t, src, dst)
}

// TestGoldenDeltaPullExchange pins two default pulls on one connection,
// in wire order: a request without a base, the full snapshot and its
// mark; a request naming that mark's version, one delta epoch and its
// mark.
func TestGoldenDeltaPullExchange(t *testing.T) {
	src := seedDB()
	tx, err := NewTransmitterObs(src, nil, nil)
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

	dst := store.New()
	recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	var rec *recConn
	recv.Dial = func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		rec = &recConn{Conn: c}
		return rec, err
	}
	var exchange []byte
	for pull := 0; pull < 2; pull++ {
		if err := recv.PullFrom([]string{ln.Addr().String()}, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		assertMirrored(t, src, dst)
		exchange = append(append(exchange, rec.wrote.Bytes()...), rec.read.Bytes()...)
		rec.wrote.Reset()
		rec.read.Reset()
		moveAllThree(src)
	}
	checkGolden(t, "delta_pull_exchange", exchange)
}
