package wizard

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"smartsock/internal/core"
	"smartsock/internal/netbatch"
	"smartsock/internal/proto"
	"smartsock/internal/store"
	"smartsock/internal/sysinfo"
)

// stormMix is the cached request mix: a handful of distinct
// requirement texts, as produced by a fleet of applications each
// reusing its own requirement. After the first round every text is a
// cache hit.
var stormMix = []string{
	"host_cpu_bogomips > 3000\nhost_cpu_free > 0.5\nhost_memory_free > 5\nscore = host_cpu_bogomips * host_cpu_free\nscore\n",
	"host_cpu_bogomips > 2000\n",
	"host_memory_free > 50\nhost_cpu_free > 0.3\n",
	"host_system_load1 < 2\nhost_cpu_bogomips > 1500\n",
	"host_cpu_free > 0.8\nhost_memory_free > 10\n",
}

// stormSelector registers the 11-host benchmark set.
func stormSelector(b testing.TB) *core.Selector {
	b.Helper()
	db := store.New()
	hosts := []struct {
		name     string
		bogomips float64
		memMB    uint64
	}{
		{"apple", 4771, 512}, {"banana", 1730, 128}, {"cherry", 5321, 1024},
		{"date", 2900, 256}, {"elder", 3650, 512}, {"fig", 4100, 768},
		{"grape", 990, 64}, {"honey", 6020, 2048}, {"iris", 3105, 384},
		{"jade", 2450, 256}, {"kiwi", 5500, 1024},
	}
	for _, h := range hosts {
		db.PutSys(sysinfo.Idle(h.name, h.bogomips, h.memMB))
	}
	sel, err := core.New(db, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return sel
}

// stormDatagrams marshals the storm mix once per run.
func stormDatagrams() [][]byte {
	datagrams := make([][]byte, len(stormMix))
	for i, detail := range stormMix {
		datagrams[i] = proto.MarshalRequest(&proto.Request{
			Seq: uint32(i), ServerNum: 4,
			Option: proto.OptPartialOK | proto.OptRankByExpr,
			Detail: detail,
		})
	}
	return datagrams
}

// splitAcross spreads b.N requests over the client goroutines.
func splitAcross(n, clients int) []int {
	counts := make([]int, clients)
	for i := 0; i < n; i++ {
		counts[i%clients]++
	}
	return counts
}

// BenchmarkWizardStorm measures end-to-end UDP request/reply
// throughput under a storm from 8 clients, every row through the one
// serve pipeline with pass-through admission. "seq-uncached" is the
// seed's serving cost (one drain loop, no cache, one datagram per
// syscall; the cache is turned off by the package's test hook) under
// ping-pong clients, one request in flight each; "seq-cached" adds the
// requirement cache; "shards8-batched" is the full
// datagram plane: 8 SO_REUSEPORT shards with batch-64 endpoints,
// driven by windowed clients that each keep 64 requests in flight
// through their own batched endpoint, so the server's
// recvmmsg/sendmmsg actually amortise. The req/s metrics are the
// headline EXPERIMENTS.md numbers.
func BenchmarkWizardStorm(b *testing.B) {
	const clients = 8

	run := func(b *testing.B, workers, batch, shards int, hooks ...func(*Wizard)) {
		w := startWizard(b, Config{
			Selector: stormSelector(b),
			Workers:  workers,
			Batch:    batch,
			Shards:   shards,
		}, hooks...)
		datagrams := stormDatagrams()
		errs := make(chan error, clients)
		counts := splitAcross(b.N, clients)
		b.ResetTimer()
		start := time.Now()
		for c := 0; c < clients; c++ {
			go func(c, count int) {
				conn, err := net.Dial("udp", w.Addr())
				if err != nil {
					errs <- err
					return
				}
				defer conn.Close()
				buf := make([]byte, 64*1024)
				for i := 0; i < count; i++ {
					if _, err := conn.Write(datagrams[(c+i)%len(datagrams)]); err != nil {
						errs <- err
						return
					}
					if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
						errs <- err
						return
					}
					if _, err := conn.Read(buf); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(c, counts[c])
		}
		for c := 0; c < clients; c++ {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
	}

	// runWindowed is the batched-client harness: every client keeps a
	// window of requests in flight over its own netbatch endpoint, so
	// datagrams queue server-side and recvmmsg drains them in bulk. A
	// read timeout reopens the window (resending through loopback
	// drops), so the run always completes.
	runWindowed := func(b *testing.B, workers, batch, shards int) {
		w := startWizard(b, Config{
			Selector: stormSelector(b),
			Workers:  workers,
			Batch:    batch,
			Shards:   shards,
		})
		datagrams := stormDatagrams()
		const window = 64
		errs := make(chan error, clients)
		counts := splitAcross(b.N, clients)
		b.ResetTimer()
		start := time.Now()
		for c := 0; c < clients; c++ {
			go func(count int) {
				raddr, err := net.ResolveUDPAddr("udp", w.Addr())
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
				cep, err := netbatch.Wrap(conn, netbatch.Options{Batch: window})
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
						n, err := cep.WriteBatch(out[:k])
						if err != nil {
							errs <- err
							return
						}
						sent += n
						continue
					}
					if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
						errs <- err
						return
					}
					n, err := cep.ReadBatch(in)
					if err != nil {
						// Datagram loss: reopen the window and resend.
						sent = recvd
						continue
					}
					recvd += n
					if recvd > count {
						recvd = count
					}
				}
				errs <- nil
			}(counts[c])
		}
		for c := 0; c < clients; c++ {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
	}

	b.Run("seq-uncached", func(b *testing.B) { run(b, 1, 1, 1, uncached) })
	b.Run("seq-cached", func(b *testing.B) { run(b, 1, 1, 1) })
	b.Run("shards8-batched", func(b *testing.B) { runWindowed(b, 8, 64, 8) })
}
