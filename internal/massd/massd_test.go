package massd

import (
	"context"
	"math"
	"net"
	"testing"
	"time"

	"smartsock/internal/shaper"
)

// startServer launches a massd file server; rate 0 leaves it
// unshaped, otherwise the listener's aggregate uplink is capped at
// rate bytes/second (the rshaper substitution).
func startServer(t *testing.T, rate float64) string {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var ln net.Listener = raw
	if rate > 0 {
		shaped, err := shaper.NewListener(raw, rate)
		if err != nil {
			t.Fatal(err)
		}
		ln = shaped
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go (&Server{}).Serve(ctx, ln)
	return raw.Addr().String()
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestDownloadSingleServer(t *testing.T) {
	conn := dial(t, startServer(t, 0))
	stats, err := Download(context.Background(), []net.Conn{conn}, 500*1024, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes != 500*1024 {
		t.Errorf("Bytes = %d", stats.Bytes)
	}
	if stats.Requests != 8 { // ceil(500/64) blocks
		t.Errorf("Requests = %d, want 8", stats.Requests)
	}
	if stats.ThroughputKBps() <= 0 {
		t.Error("no throughput computed")
	}
}

func TestDownloadSpreadsAcrossServers(t *testing.T) {
	// Both servers are shaped: the 32 blocks come off one shared counter,
	// and from unshaped loopback servers one connection's goroutine can
	// take them all before the other is ever scheduled. At 2 MB/s a
	// server is out of burst after six blocks and the rest of the
	// download outlasts any scheduler quantum.
	const rate = 2 << 20
	conns := []net.Conn{dial(t, startServer(t, rate)), dial(t, startServer(t, rate))}
	stats, err := Download(context.Background(), conns, 1<<20, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes != 1<<20 {
		t.Fatalf("Bytes = %d", stats.Bytes)
	}
	for i, b := range stats.PerConn {
		if b == 0 {
			t.Errorf("connection %d fetched nothing", i)
		}
	}
}

func TestDownloadValidation(t *testing.T) {
	if _, err := Download(context.Background(), nil, 100, 10); err == nil {
		t.Error("accepted no connections")
	}
	conn := dial(t, startServer(t, 0))
	if _, err := Download(context.Background(), []net.Conn{conn}, 0, 10); err == nil {
		t.Error("accepted zero total")
	}
	if _, err := Download(context.Background(), []net.Conn{conn}, 100, 0); err == nil {
		t.Error("accepted zero block")
	}
	if _, err := Download(context.Background(), []net.Conn{conn}, 100, MaxBlock+1); err == nil {
		t.Error("accepted oversized block")
	}
}

func TestThroughputTracksShaperRate(t *testing.T) {
	// Fig 5.3: "the bandwidth values set by rshaper were very close to
	// the actual throughput we can get from massd".
	rate := 400 * 1024.0 // 400 KB/s
	conn := dial(t, startServer(t, rate))
	total := int64(200 * 1024) // half a second of traffic
	stats, err := Download(context.Background(), []net.Conn{conn}, total, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	got := stats.ThroughputKBps() * 1024
	if math.Abs(got-rate)/rate > 0.6 {
		t.Errorf("throughput %.0f B/s vs shaped %.0f B/s", got, rate)
	}
	if got > rate*1.6 {
		t.Errorf("throughput %.0f exceeds the shaped cap %.0f", got, rate)
	}
}

func TestFastServerOutservesSlowServer(t *testing.T) {
	// The pull model behind both massd and the matrix master: the
	// faster server ends up serving more blocks.
	conns := []net.Conn{dial(t, startServer(t, 1024*1024)), dial(t, startServer(t, 64*1024))}
	stats, err := Download(context.Background(), conns, 768*1024, 16*1024)
	if err != nil {
		t.Fatal(err)
	}
	if fast, slow := stats.PerConn[0], stats.PerConn[1]; fast <= slow {
		t.Errorf("fast served %d, slow served %d", fast, slow)
	}
}

func TestDownloadDeadServerReportsError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			conn.Close() // die before serving anything
		}
		ln.Close()
	}()
	conn := dial(t, ln.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := Download(ctx, []net.Conn{conn}, 1<<20, 64*1024); err == nil {
		t.Error("dead server went unnoticed")
	}
}

func TestServerRejectsOversizeRequest(t *testing.T) {
	conn := dial(t, startServer(t, 0))
	// Hand-roll a request above MaxBlock; the server must drop the
	// connection rather than stream 2^60 bytes.
	hdr := make([]byte, 8)
	hdr[0] = 0x10
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("server answered an oversize request")
	}
}

func TestStatsThroughputZeroElapsed(t *testing.T) {
	if (Stats{Bytes: 100}).ThroughputKBps() != 0 {
		t.Error("zero elapsed should yield zero throughput")
	}
}
