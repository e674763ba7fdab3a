package shaper

import (
	"context"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNewBucketValidation(t *testing.T) {
	if _, err := NewBucket(0, 0); err == nil {
		t.Error("accepted zero rate")
	}
	if _, err := NewBucket(-5, 0); err == nil {
		t.Error("accepted negative rate")
	}
	if _, err := NewBucket(1000, 0); err != nil {
		t.Fatal(err)
	}
}

func TestBucketPacesSustainedRate(t *testing.T) {
	// 1 MB/s, take 300 KB beyond the burst: should need ≈(300KB−burst)/rate.
	rate := 1e6
	b, err := NewBucket(rate, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	total := 300 * 1024
	if err := b.Take(context.Background(), total); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	want := (float64(total) - 32*1024) / rate
	if elapsed < want*0.7 {
		t.Errorf("Take finished in %.3fs, want ≥ %.3fs (rate not enforced)", elapsed, want*0.7)
	}
	if elapsed > want*3+0.2 {
		t.Errorf("Take took %.3fs, want ≈ %.3fs (over-throttled)", elapsed, want)
	}
}

func TestBucketBurstIsImmediate(t *testing.T) {
	b, err := NewBucket(100, 1024) // very slow rate, 1 KB burst
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := b.Take(context.Background(), 1024); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("burst-sized take should not block")
	}
}

func TestTakeHonoursContext(t *testing.T) {
	b, err := NewBucket(10, 16) // 10 B/s: 1 KB would take ~100 s
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := b.Take(ctx, 1024); err == nil {
		t.Error("Take ignored context cancellation")
	}
}

func TestConnWriteShaping(t *testing.T) {
	// rshaper check (Fig 5.3): a shaped server's throughput tracks the
	// configured rate.
	client, server := net.Pipe()
	defer client.Close()
	rate := 256 * 1024.0 // 256 KB/s
	b, err := NewBucket(rate, 16*1024)
	if err != nil {
		t.Fatal(err)
	}
	shaped := NewConn(server, b, nil)

	const payload = 128 * 1024
	go func() {
		defer shaped.Close()
		shaped.Write(make([]byte, payload))
	}()
	start := time.Now()
	n, err := io.Copy(io.Discard, client)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	if n != payload {
		t.Fatalf("received %d of %d bytes", n, payload)
	}
	got := float64(n) / elapsed
	if got > rate*1.6 {
		t.Errorf("throughput %.0f B/s exceeds configured %.0f B/s", got, rate)
	}
	if got < rate*0.4 {
		t.Errorf("throughput %.0f B/s far below configured %.0f B/s", got, rate)
	}
}

func TestConnReadShaping(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	b, err := NewBucket(64*1024, 8*1024)
	if err != nil {
		t.Fatal(err)
	}
	shaped := NewConn(client, nil, b)
	const payload = 32 * 1024
	go func() {
		server.Write(make([]byte, payload))
		server.Close()
	}()
	start := time.Now()
	n, _ := io.Copy(io.Discard, shaped)
	if n != payload {
		t.Fatalf("read %d bytes", n)
	}
	wantMin := (float64(payload) - 8*1024) / (64 * 1024) * 0.5
	if time.Since(start).Seconds() < wantMin {
		t.Error("read side not paced")
	}
}

func TestListenerSharesBucketAcrossConns(t *testing.T) {
	// A server group behind one rshaper shares the uplink: two
	// parallel clients together must not exceed the rate.
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rate := 512 * 1024.0
	ln, err := NewListener(raw, rate)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const perConn = 128 * 1024
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				c.Write(make([]byte, perConn))
			}(conn)
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := int64(0)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			n, _ := io.Copy(io.Discard, conn)
			mu.Lock()
			total += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if total != 2*perConn {
		t.Fatalf("received %d bytes", total)
	}
	got := float64(total) / elapsed
	if got > rate*1.8 {
		t.Errorf("aggregate throughput %.0f B/s blows through shared cap %.0f B/s", got, rate)
	}
}

func TestShapedRateAccuracyAcrossSettings(t *testing.T) {
	// The Fig 5.3 property in miniature: measured ≈ configured across
	// a range of rates.
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	for _, rate := range []float64{128 * 1024, 512 * 1024} {
		b, err := NewBucket(rate, 8*1024)
		if err != nil {
			t.Fatal(err)
		}
		total := int(rate / 2) // half a second of traffic
		start := time.Now()
		if err := b.Take(context.Background(), total); err != nil {
			t.Fatal(err)
		}
		got := float64(total) / time.Since(start).Seconds()
		if math.Abs(got-rate)/rate > 0.5 {
			t.Errorf("rate %.0f: measured %.0f B/s", rate, got)
		}
	}
}

func TestPropertyBucketNeverOverGrants(t *testing.T) {
	// Over any sequence of takes, the bytes granted can never exceed
	// burst + rate×elapsed — the invariant that makes the rshaper
	// substitution sound.
	prop := func(seed int64, takes uint8) bool {
		r := rand.New(rand.NewSource(seed))
		rate := 1e6 + float64(r.Intn(9))*1e6 // 1–10 MB/s
		burst := 4096.0
		b, err := NewBucket(rate, burst)
		if err != nil {
			return false
		}
		start := time.Now()
		total := 0
		for i := 0; i < int(takes%12)+1; i++ {
			n := r.Intn(8192) + 1
			if err := b.Take(context.Background(), n); err != nil {
				return false
			}
			total += n
		}
		elapsed := time.Since(start).Seconds()
		// Allow a small scheduling epsilon on top of the theoretical
		// ceiling.
		ceiling := burst + rate*(elapsed+0.02)
		return float64(total) <= ceiling
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
