package wizard

// BenchmarkOverloadStorm is the overload plane's acceptance harness:
// capacity under a closed-loop storm, then goodput and tail queue
// delay under an open-loop storm paced at 4× that capacity, with the
// admission plane on (shed-4x) and off (bare-4x). bench.sh turns the
// rows into BENCH_overload.json and bench_schema.py gates the
// protection ratios: protected goodput ≥ 70% of capacity, protected
// p99 sojourn ≤ 4× the CoDel target. The bare row is the collapse
// curve the protection is measured against — with the kernel receive
// buffer raised (raiseRecvBuf), its queue delay grows past any useful
// deadline instead of the kernel silently shedding for us.

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartsock/internal/netbatch"
	"smartsock/internal/obs"
	"smartsock/internal/overload"
	"smartsock/internal/proto"
)

const (
	// overloadHandlerCost pins the wizard's capacity well below what
	// open-loop loopback senders can generate, so "4× capacity" is a
	// real overload, not a wish.
	overloadHandlerCost = 100 * time.Microsecond
	// overloadDeadline is the goodput criterion: a reply later than
	// this is as useless to its client as no reply (the client's
	// retry fires at roughly this scale).
	overloadDeadline = 100 * time.Millisecond
	// overloadRecvBuf keeps the unprotected configuration honest: the
	// excess queue must live somewhere measurable, not vanish into
	// default-sized kernel buffer drops.
	overloadRecvBuf = 4 << 20
	overloadClients = 8
)

// overloadWizard starts the shared serving configuration; only the
// gate differs between the protected and bare rows.
func overloadWizard(b *testing.B, gate *overload.Gate) *Wizard {
	w := startWizard(b, Config{
		Selector: stormSelector(b),
		Update:   slowUpdate(overloadHandlerCost),
		Workers:  4, Batch: 16, Shards: 4,
		Overload: gate,
	})
	raiseRecvBuf(b, w, overloadRecvBuf)
	return w
}

// measuredCapacity caches the closed-loop capacity (req/s) across the
// benchmark's rows so the 4× pacing is derived from a measurement,
// not a guess.
var measuredCapacity atomic.Uint64

// closedLoopStorm drives n requests from overloadClients windowed
// sockets (up to 64 in flight each, resending on loss) and returns
// the elapsed time. Closed-loop clients with deep windows keep every
// worker saturated, so n/elapsed is the service rate — capacity.
func closedLoopStorm(b *testing.B, addr string, n int) time.Duration {
	b.Helper()
	const window = 64
	datagrams := stormDatagrams()
	counts := splitAcross(n, overloadClients)
	errs := make(chan error, overloadClients)
	start := time.Now()
	for c := 0; c < overloadClients; c++ {
		go func(count int) {
			raddr, err := net.ResolveUDPAddr("udp", addr)
			if err != nil {
				errs <- err
				return
			}
			conn, err := net.DialUDP("udp", nil, raddr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			ep, err := netbatch.Wrap(conn, netbatch.Options{Batch: window})
			if err != nil {
				errs <- err
				return
			}
			out := netbatch.NewBatch(window, 256)
			in := netbatch.NewBatch(window, 64*1024)
			sent, recvd := 0, 0
			for recvd < count {
				if inflight := sent - recvd; sent < count && inflight < window {
					k := min(window-inflight, count-sent)
					for i := 0; i < k; i++ {
						out[i].Buf = append(out[i].Buf[:0], datagrams[(sent+i)%len(datagrams)]...)
						out[i].Addr = netip.AddrPort{} // connected socket
					}
					m, err := ep.WriteBatch(out[:k])
					if err != nil {
						errs <- err
						return
					}
					sent += m
					continue
				}
				if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
					errs <- err
					return
				}
				m, err := ep.ReadBatch(in)
				if err != nil {
					sent = recvd // datagram loss: reopen the window and resend
					continue
				}
				recvd += m
				if recvd > count {
					recvd = count
				}
			}
			errs <- nil
		}(counts[c])
	}
	for c := 0; c < overloadClients; c++ {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	return time.Since(start)
}

// capacity returns the cached closed-loop capacity, measuring it with
// a short burst when no capacity row has run yet (e.g. under a -bench
// filter that skips it).
func capacity(b *testing.B) float64 {
	b.Helper()
	if c := measuredCapacity.Load(); c > 0 {
		return float64(c)
	}
	w := overloadWizard(b, nil)
	const probe = 4000
	elapsed := closedLoopStorm(b, w.Addr(), probe)
	c := float64(probe) / elapsed.Seconds()
	measuredCapacity.Store(uint64(c))
	return c
}

// goodputResult classifies one open-loop storm's replies.
type goodputResult struct {
	sent        int
	timely      uint64 // non-shed replies inside overloadDeadline
	late        uint64 // non-shed replies past the deadline
	shedReplies uint64 // "overloaded, retry-after" replies
	sendElapsed time.Duration
	latency     *obs.Histogram // client-observed request→reply latency
}

// openLoopStorm injects n requests at the given aggregate rate across
// overloadClients sockets, never waiting for replies, and classifies
// every reply against the goodput deadline. Send timestamps are kept
// per sequence number so latency is measured per request.
func openLoopStorm(b *testing.B, addr string, n int, rate float64) goodputResult {
	b.Helper()
	datagrams := stormDatagrams()
	// Re-stamp each datagram with its storm-wide sequence number.
	sendNanos := make([]atomic.Int64, n)
	res := goodputResult{sent: n, latency: obs.NewHistogram(obs.QueueDelayBuckets)}
	counts := splitAcross(n, overloadClients)
	interval := time.Duration(float64(time.Second) * overloadClients / rate)

	var wg sync.WaitGroup
	start := time.Now()
	base := 0
	for c := 0; c < overloadClients; c++ {
		wg.Add(1)
		go func(c, base, count int) {
			defer wg.Done()
			conn, err := net.Dial("udp", addr)
			if err != nil {
				b.Error(err)
				return
			}
			defer conn.Close()

			var rd sync.WaitGroup
			rd.Add(1)
			go func() {
				defer rd.Done()
				buf := make([]byte, 64*1024)
				for {
					if err := conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond)); err != nil {
						return
					}
					m, err := conn.Read(buf)
					if err != nil {
						return // idle: this socket's replies are drained
					}
					now := time.Now().UnixNano()
					reply, err := proto.UnmarshalReply(buf[:m])
					if err != nil || int(reply.Seq) >= n {
						continue
					}
					if _, shed := proto.RetryAfter(reply.Err); shed {
						atomic.AddUint64(&res.shedReplies, 1)
						continue
					}
					lat := now - sendNanos[reply.Seq].Load()
					res.latency.Observe(lat)
					if lat <= int64(overloadDeadline) {
						atomic.AddUint64(&res.timely, 1)
					} else {
						atomic.AddUint64(&res.late, 1)
					}
				}
			}()

			var req proto.Request
			next := time.Now()
			for i := 0; i < count; i++ {
				if d := time.Until(next); d > time.Millisecond {
					time.Sleep(d)
				}
				next = next.Add(interval)
				if err := proto.ParseRequest(datagrams[(c+i)%len(datagrams)], &req); err != nil {
					b.Error(err)
					return
				}
				req.Seq = uint32(base + i)
				sendNanos[base+i].Store(time.Now().UnixNano())
				if _, err := conn.Write(proto.MarshalRequest(&req)); err != nil {
					b.Error(err)
					return
				}
			}
			rd.Wait()
		}(c, base, counts[c])
		base += counts[c]
	}
	wg.Wait()
	// The drain window (no reply for 300ms) is teardown, not storm
	// time; goodput is measured against the injection window.
	res.sendElapsed = time.Since(start) - 300*time.Millisecond
	if res.sendElapsed <= 0 {
		res.sendElapsed = time.Since(start)
	}
	return res
}

func BenchmarkOverloadStorm(b *testing.B) {
	b.Run("capacity", func(b *testing.B) {
		w := overloadWizard(b, nil)
		b.ResetTimer()
		elapsed := closedLoopStorm(b, w.Addr(), b.N)
		qps := float64(b.N) / elapsed.Seconds()
		measuredCapacity.Store(uint64(qps))
		b.ReportMetric(qps, "req/s")
	})

	b.Run("shed-4x", func(b *testing.B) {
		// The queue bound is sized against the pinned service rate: a
		// worker drains ~1/overloadHandlerCost requests per second
		// (timer granularity floors the real cost near 1ms), so 8
		// queued requests is ~10ms of standing delay — the CoDel
		// controller operates inside that ceiling instead of being
		// handed a queue whose worst case is seconds deep.
		gate := overload.New(overload.Config{MaxQueue: 8})
		w := overloadWizard(b, gate)
		rate := 4 * capacity(b)
		b.ResetTimer()
		res := openLoopStorm(b, w.Addr(), b.N, rate)
		b.ReportMetric(float64(res.timely)/res.sendElapsed.Seconds(), "goodput/s")
		b.ReportMetric(float64(res.shedReplies)/float64(res.sent), "shed_frac")
		// Tail queue delay of the requests actually served, from the
		// plane's own sojourn histogram.
		snap := gate.QueueDelay().Snapshot()
		b.ReportMetric(float64(snap.Quantile(0.99))/1e6, "p99_ms")
	})

	b.Run("bare-4x", func(b *testing.B) {
		w := overloadWizard(b, nil)
		rate := 4 * capacity(b)
		b.ResetTimer()
		res := openLoopStorm(b, w.Addr(), b.N, rate)
		b.ReportMetric(float64(res.timely)/res.sendElapsed.Seconds(), "goodput/s")
		b.ReportMetric(float64(res.shedReplies)/float64(res.sent), "shed_frac")
		// No admission plane, no sojourn histogram: the tail is the
		// client-observed latency, which is the point — the queue
		// delay went somewhere users feel.
		b.ReportMetric(float64(res.latency.Snapshot().Quantile(0.99))/1e6, "p99_ms")
	})
}
