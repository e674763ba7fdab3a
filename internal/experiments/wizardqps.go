package experiments

// The wizard fast-path experiment: request-storm throughput of the
// §3.6.1 wizard under three presets of its one serve pipeline, from
// the thesis-faithful sequential one up to the batched/sharded datagram
// plane. DESIGN.md's fast-path and datagram-plane sections and
// EXPERIMENTS.md's wizard.qps entry carry the measured numbers.

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"time"

	"smartsock/internal/core"
	"smartsock/internal/netbatch"
	"smartsock/internal/proto"
	"smartsock/internal/store"
	"smartsock/internal/sysinfo"
	"smartsock/internal/wizard"
)

func init() {
	register("wizard.qps", wizardQPS)
}

// stormRequirements is the cached request mix: a handful of distinct
// requirement texts, as a fleet of applications each reusing its own
// requirement would produce.
var stormRequirements = []string{
	"host_cpu_bogomips > 3000\nhost_cpu_free > 0.5\nhost_memory_free > 5\nscore = host_cpu_bogomips * host_cpu_free\nscore\n",
	"host_cpu_bogomips > 2000\n",
	"host_memory_free > 50\nhost_cpu_free > 0.3\n",
	"host_system_load1 < 2\nhost_cpu_bogomips > 1500\n",
	"host_cpu_free > 0.8\nhost_memory_free > 10\n",
}

// wizardQPS storms one in-process wizard per configuration over real
// UDP sockets and reports end-to-end request throughput:
//
//   - seq/uncached: the thesis-faithful serving model (wizardd
//     -compat) — one sequential handler, every requirement re-parsed;
//   - seq/cached: the compiled-requirement cache alone;
//   - shards8/batched: the full datagram plane — 8 SO_REUSEPORT
//     shards with batch-64 recvmmsg/sendmmsg endpoints, driven by
//     windowed clients that keep requests in flight.
//
// Requests draw from a fixed five-requirement mix, so after the first
// round every text is a cache hit in the cached configurations.
func wizardQPS(o Options) (*Table, error) {
	requests := 20000
	if o.Quick {
		requests = 2000
	}
	const clients = 4

	db := store.New()
	for i := 0; i < 11; i++ {
		db.PutSys(sysinfo.Idle(fmt.Sprintf("node-%02d", i), 1000+float64(i)*550, 128<<(i%4)))
	}

	datagrams := make([][]byte, len(stormRequirements))
	for i, detail := range stormRequirements {
		datagrams[i] = proto.MarshalRequest(&proto.Request{
			Seq: uint32(i), ServerNum: 4,
			Option: proto.OptPartialOK | proto.OptRankByExpr,
			Detail: detail,
		})
	}

	configs := []stormConfig{
		{"seq/uncached (thesis §3.6.1)", 1, -1, 1, 1, false},
		{"seq/cached", 1, 0, 1, 1, false},
		{"shards8/batched (windowed clients)", 8, 0, 64, 8, true},
	}
	t := &Table{
		ID:      "wizard.qps",
		Title:   "Wizard request-storm throughput by serving configuration",
		Columns: []string{"config", "requests", "elapsed", "req/s", "cache hits"},
	}
	for _, cfg := range configs {
		qps, hitRate, elapsed, err := stormOnce(db, cfg, requests, clients, datagrams)
		if err != nil {
			return nil, fmt.Errorf("wizard.qps %s: %w", cfg.label, err)
		}
		t.AddRow(cfg.label, fmt.Sprintf("%d", requests),
			fmt.Sprintf("%.2fs", elapsed.Seconds()),
			fmt.Sprintf("%.0f", qps),
			fmt.Sprintf("%.1f%%", hitRate*100))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d UDP clients (ping-pong; the batched row keeps a %d-request window in flight per client), %d-host table, five-requirement mix", clients, stormWindow, 11),
		"single-core containers bound the end-to-end gain: most remaining fast-path CPU is per-datagram kernel cost inside recvmmsg/sendmmsg (see EXPERIMENTS.md)",
	)
	return t, nil
}

// stormConfig is one wizard.qps serving configuration.
type stormConfig struct {
	label     string
	workers   int
	cacheSize int
	batch     int
	shards    int
	windowed  bool // windowed netbatch clients instead of ping-pong
}

// stormWindow is the per-client in-flight window (and client batch
// size) for the windowed configuration.
const stormWindow = 64

// stormOnce boots a wizard in the given configuration, fires the
// request mix from ping-pong (or windowed batched) clients and
// reports throughput plus the requirement-cache hit rate.
func stormOnce(db *store.DB, cfg stormConfig, requests, clients int, datagrams [][]byte) (qps, hitRate float64, elapsed time.Duration, err error) {
	sel, err := core.New(db, core.Config{})
	if err != nil {
		return 0, 0, 0, err
	}
	w, err := wizard.New(wizard.Config{
		Addr:      "127.0.0.1:0",
		Selector:  sel,
		Workers:   cfg.workers,
		CacheSize: cfg.cacheSize,
		Batch:     cfg.batch,
		Shards:    cfg.shards,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run(ctx) }()

	errs := make(chan error, clients)
	counts := make([]int, clients)
	for i := 0; i < requests; i++ {
		counts[i%clients]++
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		//lint:ignore leakygo every client sends exactly one value on the buffered errs channel; the receive loop below joins all of them
		go func(c, count int) {
			if cfg.windowed {
				errs <- stormWindowedClient(w.Addr(), count, datagrams)
				return
			}
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
		if cerr := <-errs; cerr != nil && err == nil {
			err = cerr
		}
	}
	elapsed = time.Since(start)
	cancel()
	<-done
	if err != nil {
		return 0, 0, 0, err
	}
	hits, misses := w.CacheStats()
	if total := hits + misses; total > 0 {
		hitRate = float64(hits) / float64(total)
	}
	return float64(requests) / elapsed.Seconds(), hitRate, elapsed, nil
}

// stormWindowedClient drives count requests through one batched
// netbatch endpoint, keeping up to stormWindow in flight so the
// wizard's recvmmsg/sendmmsg loops actually amortise. A read timeout
// reopens the window (loopback drops are possible under the burst),
// so the run always completes.
func stormWindowedClient(addr string, count int, datagrams [][]byte) error {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	ep, err := netbatch.Wrap(conn, netbatch.Options{Batch: stormWindow})
	if err != nil {
		return err
	}
	out := netbatch.NewBatch(stormWindow, 256)
	in := netbatch.NewBatch(stormWindow, 64*1024)
	sent, recvd := 0, 0
	for recvd < count {
		if inflight := sent - recvd; sent < count && inflight < stormWindow {
			k := min(stormWindow-inflight, count-sent)
			for i := 0; i < k; i++ {
				out[i].Buf = append(out[i].Buf[:0], datagrams[(sent+i)%len(datagrams)]...)
				out[i].Addr = netip.AddrPort{} // connected socket
			}
			n, err := ep.WriteBatch(out[:k])
			if err != nil {
				return err
			}
			sent += n
			continue
		}
		if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			return err
		}
		n, err := ep.ReadBatch(in)
		if err != nil {
			sent = recvd // datagram loss: reopen the window and resend
			continue
		}
		recvd += n
		if recvd > count {
			recvd = count
		}
	}
	return nil
}
