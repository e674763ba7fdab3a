package wizard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"smartsock/internal/chaos"
	"smartsock/internal/netbatch"
	"smartsock/internal/overload"
	"smartsock/internal/proto"
)

// stormRequests builds a deterministic request mix covering every
// reply shape the wizard produces: full answers, partial answers,
// shortfall errors, parse errors, template hits and template misses.
// Each request's Seq is its index, so replies key back unambiguously.
func stormRequests(n int) []*proto.Request {
	shapes := []proto.Request{
		{ServerNum: 1, Detail: "host_cpu_bogomips > 4000"},
		{ServerNum: 2, Option: proto.OptPartialOK, Detail: "host_cpu_free > 0.5"},
		{ServerNum: 10, Detail: "host_cpu_free > 0.5"}, // shortfall error
		{ServerNum: 1, Detail: "a <"},                  // parse error
		{ServerNum: 1, Option: proto.OptTemplate, Detail: "fast"},
		{ServerNum: 1, Option: proto.OptTemplate, Detail: "no-such-template"},
		{ServerNum: 1, Detail: "host_memory_total >= 128"},
	}
	reqs := make([]*proto.Request, n)
	for i := range reqs {
		r := shapes[i%len(shapes)]
		r.Seq = uint32(i)
		reqs[i] = &r
	}
	return reqs
}

var stormTemplates = map[string]string{"fast": "host_cpu_bogomips > 4000\n"}

// askRaw sends req over conn until the matching raw reply datagram
// arrives, resending through datagram loss. Replies for other
// sequence numbers (duplicates from a chaos run) are discarded.
func askRaw(t *testing.T, conn net.Conn, req *proto.Request) []byte {
	t.Helper()
	payload := proto.MarshalRequest(req)
	buf := make([]byte, 64*1024)
	for attempt := 0; attempt < 50; attempt++ {
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		for {
			n, err := conn.Read(buf)
			if err != nil {
				break // deadline: resend
			}
			reply, err := proto.UnmarshalReply(buf[:n])
			if err != nil {
				continue
			}
			if reply.Seq == req.Seq {
				return append([]byte(nil), buf[:n]...)
			}
		}
	}
	t.Fatalf("no reply for seq %d after retries", req.Seq)
	return nil
}

// collectReplies fans reqs across clients concurrent sockets against
// addr and returns the raw reply datagram per sequence number. wrap,
// when set, interposes on each client socket (chaos injection).
func collectReplies(t *testing.T, addr string, reqs []*proto.Request, clients int, wrap func(net.Conn) net.Conn) map[uint32][]byte {
	t.Helper()
	out := make(map[uint32][]byte, len(reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("udp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			if wrap != nil {
				conn = wrap(conn)
			}
			for i := c; i < len(reqs); i += clients {
				raw := askRaw(t, conn, reqs[i])
				mu.Lock()
				out[reqs[i].Seq] = raw
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out
}

// TestBatchedShardsMatchSequential is the differential suite: the
// batched, sharded, multi-worker wizard — under the pass-through
// admission policy and under an armed overload gate — and the daemon's
// defaults with the gate off must produce byte-identical reply
// datagrams, including error replies, to the thesis's serving
// (sequential, unbatched, unsharded, uncached, gate off) for the same
// request stream.
func TestBatchedShardsMatchSequential(t *testing.T) {
	reqs := stormRequests(140)

	run := func(cfg Config, hooks ...func(*Wizard)) map[uint32][]byte {
		sel, _ := testSelector(t)
		cfg.Selector = sel
		cfg.Templates = stormTemplates
		w := startWizard(t, cfg, hooks...)
		return collectReplies(t, w.Addr(), reqs, 7, nil)
	}
	seq := run(Config{Workers: 1, Batch: 1, Shards: 1}, uncached)
	for name, cfg := range map[string]Config{
		"daemon default, gate off": {Batch: netbatch.DefaultBatch, Shards: 1},
		"gate off":                 {Workers: 4, Batch: 32, Shards: 4},
		"gate on":                  {Workers: 4, Batch: 32, Shards: 4, Overload: overload.New(overload.Config{MaxQueue: 1024})},
	} {
		t.Run(name, func(t *testing.T) {
			batched := run(cfg)

			if len(seq) != len(reqs) || len(batched) != len(reqs) {
				t.Fatalf("collected %d sequential and %d batched replies, want %d", len(seq), len(batched), len(reqs))
			}
			for _, req := range reqs {
				if !bytes.Equal(seq[req.Seq], batched[req.Seq]) {
					t.Errorf("seq %d: sequential reply %q != batched reply %q",
						req.Seq, seq[req.Seq], batched[req.Seq])
				}
			}
		})
	}
}

// TestChaosStormOverShardedListener runs a loss+duplication storm
// against the sharded batched listener: every request must still get
// its reply through retries, and duplicate deliveries must surface as
// extra handled requests, not wedged serve loops.
func TestChaosStormOverShardedListener(t *testing.T) {
	sel, _ := testSelector(t)
	w := startWizard(t, Config{
		Selector: sel, Templates: stormTemplates,
		Workers: 4, Batch: 16, Shards: 4,
	})
	in := chaos.New(chaos.Config{
		Seed:     chaos.SeedFromEnv(42),
		DropRate: 0.2,
		DupRate:  0.2,
	})
	reqs := stormRequests(120)
	got := collectReplies(t, w.Addr(), reqs, 6, func(c net.Conn) net.Conn {
		return in.WrapConn(c)
	})
	if len(got) != len(reqs) {
		t.Fatalf("storm resolved %d replies, want %d", len(got), len(reqs))
	}
	if w.Handled() < uint64(len(reqs)) {
		t.Errorf("Handled = %d, want ≥ %d", w.Handled(), len(reqs))
	}
}

// flakyEndpoint fails its first writes with the errno a saturated
// send buffer produces, then recovers. It stands in for the kernel
// refusing replies under pressure.
type flakyEndpoint struct {
	netbatch.Endpoint
	failures atomic.Int32
}

func (f *flakyEndpoint) WriteBatch(ms []netbatch.Message) (int, error) {
	if f.failures.Add(-1) >= 0 {
		return 0, fmt.Errorf("writebatch: %w", syscall.ENOBUFS)
	}
	return f.Endpoint.WriteBatch(ms)
}

// TestReplyWriteErrorKeepsServing injects ENOBUFS-style write
// failures into the serve loop's endpoint: the failed replies must be
// counted in wizard_reply_errors and the loop must keep answering —
// a transient kernel refusal is datagram loss, not a crash.
func TestReplyWriteErrorKeepsServing(t *testing.T) {
	sel, _ := testSelector(t)
	w, err := New(Config{Addr: "127.0.0.1:0", Selector: sel, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyEndpoint{}
	flaky.failures.Store(2)
	w.testWrap = func(ep netbatch.Endpoint) netbatch.Endpoint {
		flaky.Endpoint = ep
		return flaky
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go w.Run(ctx)

	conn, err := net.Dial("udp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	raw := askRaw(t, conn, &proto.Request{Seq: 9, ServerNum: 1, Detail: "host_cpu_bogomips > 4000"})
	reply, err := proto.UnmarshalReply(raw)
	if err != nil || reply.Err != "" {
		t.Fatalf("reply after injected write errors = %q, %v", raw, err)
	}
	if w.ReplyErrors() == 0 {
		t.Error("injected write failures not counted in wizard_reply_errors")
	}
	if flaky.failures.Load() >= 0 {
		t.Error("serve loop never retried past the injected failures")
	}
}

// deadEndpoint fails every read the way a socket the kernel took away
// would: with an error that is neither the context's nor a close.
type deadEndpoint struct{ netbatch.Endpoint }

func (deadEndpoint) ReadBatch([]netbatch.Message) (int, error) {
	return 0, fmt.Errorf("readbatch: %w", syscall.EBADF)
}

// TestRunReleasesEverythingWhenIngestFails: Run returning an error is
// the wizard giving up, and its caller's context is still live then —
// the goroutines and the sockets have to go with the return, not with a
// cancel that may be hours away. With two shards one failed loop takes
// the other down too: its open socket would keep its share of the
// clients, unanswered.
func TestRunReleasesEverythingWhenIngestFails(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		return len(ents)
	}
	if fds() < 0 {
		t.Skip("no /proc/self/fd to count descriptors with")
	}
	sel, _ := testSelector(t)
	for _, shards := range []int{1, 2} {
		goroutines, open := runtime.NumGoroutine(), fds()
		w, err := New(Config{Addr: "127.0.0.1:0", Selector: sel, Workers: 2, Batch: 8, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if w.Shards() != shards {
			t.Skipf("asked for %d shards, got %d (no SO_REUSEPORT)", shards, w.Shards())
		}
		// Only shard 0's ingest loop, the first endpoint built, fails;
		// with two shards the other one reads on until it is closed.
		wrapped := 0
		w.testWrap = func(ep netbatch.Endpoint) netbatch.Endpoint {
			if wrapped++; wrapped > 1 {
				return ep
			}
			return deadEndpoint{ep}
		}
		ctx, cancel := context.WithCancel(context.Background())
		returned := make(chan error, 1)
		go func() { returned <- w.Run(ctx) }()
		select {
		case err := <-returned:
			if !errors.Is(err, syscall.EBADF) {
				t.Fatalf("%d shards: Run = %v, want the ingest loop's read error", shards, err)
			}
		case <-time.After(5 * time.Second):
			cancel()
			t.Fatalf("%d shards: Run still serving 5 s after an ingest loop failed", shards)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines || fds() > open; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d shards: Run returned with its context live and left %d goroutines (%d before) and %d descriptors (%d before)",
					shards, runtime.NumGoroutine(), goroutines, fds(), open)
			}
		}
		cancel()
	}
}

// TestRunReturnsWithItsSocketsClosed: the end of the context closes the
// sockets on another goroutine than Run's, and a second Close of a
// socket returns before the first has released it. Counted the moment
// Run returns, over many rounds, no socket may be left.
func TestRunReturnsWithItsSocketsClosed(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		return len(ents)
	}
	if fds() < 0 {
		t.Skip("no /proc/self/fd to count descriptors with")
	}
	sel, _ := testSelector(t)
	for i := 0; i < 500; i++ {
		open := fds()
		w, err := New(Config{Addr: "127.0.0.1:0", Selector: sel, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		returned := make(chan error, 1)
		go func() { returned <- w.Run(ctx) }()
		// One answered request: the ingest loops are reading when the
		// context ends.
		conn, err := net.Dial("udp", w.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(proto.MarshalRequest(&proto.Request{Seq: 1, ServerNum: 1, Detail: "1 > 0"})); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 2048)); err != nil {
			t.Fatalf("round %d: no reply: %v", i, err)
		}
		conn.Close()
		cancel()
		select {
		case <-returned:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Run still serving 5 s after its context ended", i)
		}
		if got := fds(); got > open {
			t.Fatalf("round %d: Run returned with %d descriptors open, %d before it", i, got, open)
		}
	}
}

// TestRecvBatchObserved pins the tentpole's observable win: with
// batching on, a burst of queued requests must eventually be drained
// more than one datagram per syscall, visible as histogram sum >
// count in wizard_recv_batch.
func TestRecvBatchObserved(t *testing.T) {
	sel, _ := testSelector(t)
	w := startWizard(t, Config{Selector: sel, Batch: 32})
	conn, err := net.Dial("udp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	payload := proto.MarshalRequest(&proto.Request{Seq: 1, ServerNum: 1, Detail: "1 > 0"})
	buf := make([]byte, 4096)
	for round := 0; round < 100; round++ {
		// Burst without reading so datagrams queue on the socket, then
		// drain the replies.
		const burst = 24
		for i := 0; i < burst; i++ {
			if _, err := conn.Write(payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		if w.recvBatch.Sum() > int64(w.recvBatch.Count()) {
			return // some syscall moved more than one datagram
		}
	}
	t.Fatalf("recv batches stayed at 1 datagram/syscall over every round (count=%d sum=%d)",
		w.recvBatch.Count(), w.recvBatch.Sum())
}
