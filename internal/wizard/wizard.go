// Package wizard implements the user request handler of §3.6.1: a
// UDP daemon that receives [seq, serverNum, option, detail] requests,
// parses the requirement detail with the meta language, matches it
// against the status databases and replies with the selected server
// list.
//
// UDP is deliberate: requests are single datagrams, replies are
// single datagrams, and under request storms a TCP wizard would
// accumulate TIME_WAIT state until "too many files opened" (§3.6.1).
//
// There is one serve pipeline (Run): per socket, an ingest loop reads
// request batches, stamps their arrival time and pushes them into an
// admission queue; drain loops pop, answer and flush the replies. The
// split is load-bearing — an answer can block for seconds in a
// distributed-mode Update, and a loop that answered inline would stop
// reading the socket meanwhile, losing the arrival timestamps and the
// shed replies exactly when overload control needs them. Everything
// else is a Config setting on that pipeline, including whether the
// queue sheds (internal/overload) or passes everything through. The
// thesis wizard "processes the user requests sequentially"; a thesis
// peer sees only the reply bytes and a wizard that never sheds, so
// wizardd -compat just disables the gate. Drain loops, batching,
// shards and the cache are wire-transparent: the differential suite
// holds them to the thesis's serving, byte for byte.
//
// In distributed mode the wizard triggers a pull from the passive
// transmitters before matching, so sparse deployments only move
// status data when someone actually asks for servers.
package wizard

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/netip"
	"strings"
	"sync"
	"time"

	"smartsock/internal/core"
	"smartsock/internal/loop"
	"smartsock/internal/netbatch"
	"smartsock/internal/obs"
	"smartsock/internal/overload"
	"smartsock/internal/proto"
	"smartsock/internal/reqlang"
)

// UpdateFunc refreshes the wizard-side databases before a request is
// matched; in distributed mode it wraps Receiver.PullFrom. Nil means
// centralized mode, where the receiver refreshes continuously.
type UpdateFunc func(ctx context.Context) error

// Config parameterises a wizard.
type Config struct {
	// Addr is the UDP service address; port 0 picks one.
	Addr string
	// Selector performs the matching.
	Selector *core.Selector
	// Update is called before each request in distributed mode.
	Update UpdateFunc
	// Templates maps names to predefined requirement texts, used
	// when a request carries OptTemplate (§3.6.1's "predefined server
	// requirement templates"). Drain loops read it: leave it as is after New.
	Templates map[string]string
	// Logger receives per-request errors; nil silences them.
	Logger *log.Logger
	// Workers is the number of drain loops answering queued requests.
	// 0 or 1 answers one request at a time, in arrival order (§3.6.1);
	// at least one loop runs per shard, so the pool is
	// max(Workers, shards).
	Workers int
	// Batch is the most request datagrams one socket syscall may move
	// on the serve loops (recvmmsg/sendmmsg on Linux). 0 and 1 both
	// select the historical one-syscall-per-datagram mode; values
	// above netbatch.MaxBatch are clamped. Wire behaviour is
	// identical at every setting.
	Batch int
	// Shards is the number of SO_REUSEPORT sockets bound to Addr so
	// the kernel load-balances request flows across ingest loops. 0
	// and 1 bind a single socket. Off Linux the setting degrades to
	// one socket (counted by netbatch_fallback).
	Shards int
	// Overload is the admission policy at each shard's queue
	// (internal/overload). Enabled, the queue is bounded at MaxQueue, the
	// drain loops run it under a CoDel controller that sheds persistent
	// standing queues with "overloaded, retry-after" replies, and a
	// per-source token bucket fends off runaway clients before they
	// occupy queue space. Disabled (MaxQueue 0, what wizardd -compat
	// serves with) it is the pass-through policy: the queue is one receive batch
	// deep, a full queue blocks the ingest loop, nothing is shed, and
	// the kernel socket buffer is the only backpressure. Nil means a
	// disabled gate with detached metrics.
	Overload *overload.Gate
	// Obs, when set, registers the wizard's counters (wizard_requests,
	// wizard_rejected, wizard_update_failures, wizard_reply_errors),
	// its per-outcome request-latency histograms (wizard_latency_*),
	// the datagrams-per-syscall histograms (wizard_recv_batch,
	// wizard_send_batch), the netbatch syscall counters and the
	// requirement cache's hit/miss counters; nil detaches them all.
	Obs *obs.Registry
}

// Wizard is a running request handler.
type Wizard struct {
	cfg        Config
	shards     []*net.UDPConn // ≥1 sockets; >1 share the port via SO_REUSEPORT
	cache      *reqlang.Cache
	handled    *obs.Counter // wizard_requests: requests answered
	rejected   *obs.Counter // wizard_rejected: answered with an error
	updateFail *obs.Counter // wizard_update_failures: pre-request refreshes failed
	replyErr   *obs.Counter // wizard_reply_errors: reply datagrams the kernel refused

	// Datagrams-per-syscall histograms: how full the batched plane
	// actually runs. A sum far above the count means recvmmsg is
	// earning its keep; sum == count means ping-pong traffic.
	recvBatch *obs.Histogram // wizard_recv_batch
	sendBatch *obs.Histogram // wizard_send_batch

	// testWrap, when set by tests, wraps each ingest and drain loop's
	// endpoint — the injection point for write-error fault tests.
	testWrap func(netbatch.Endpoint) netbatch.Endpoint

	// freeBufs recycles queue-handoff receive buffers between the
	// ingest loops (which hand a filled buffer to the queue and need a
	// fresh one for the ring slot) and the drain loops (which return
	// the buffer once the request is answered). A channel free list keeps
	// the exchange allocation-free; when it runs dry the getter
	// allocates and when it overflows the putter lets the GC collect.
	freeBufs chan []byte

	// Per-outcome request-latency histograms (§3.6.1's selection
	// quality, made measurable): every Answer lands in exactly one.
	latAnswered *obs.Histogram // full server list returned
	latPartial  *obs.Histogram // short list accepted under OptPartialOK
	latStale    *obs.Histogram // rejected with stale records dropped
	latParse    *obs.Histogram // requirement did not parse / unknown template
	latRejected *obs.Histogram // any other error reply
}

// New binds the wizard's socket (or SO_REUSEPORT shard set).
func New(cfg Config) (*Wizard, error) {
	if cfg.Selector == nil {
		return nil, fmt.Errorf("wizard: nil selector")
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("wizard: %d workers", cfg.Workers)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("wizard: %d shards", cfg.Shards)
	}
	shards, err := netbatch.ListenShards(cfg.Addr, max(cfg.Shards, 1), cfg.Obs)
	if err != nil {
		return nil, fmt.Errorf("wizard: %w", err)
	}
	if cfg.Overload == nil {
		cfg.Overload = overload.New(overload.Config{})
	}
	w := &Wizard{
		cfg:         cfg,
		shards:      shards,
		cache:       reqlang.NewCacheObs(reqlang.DefaultCacheSize, cfg.Obs),
		handled:     cfg.Obs.Counter("wizard_requests"),
		rejected:    cfg.Obs.Counter("wizard_rejected"),
		updateFail:  cfg.Obs.Counter("wizard_update_failures"),
		replyErr:    cfg.Obs.Counter("wizard_reply_errors"),
		recvBatch:   cfg.Obs.Histogram("wizard_recv_batch", obs.BatchBuckets),
		sendBatch:   cfg.Obs.Histogram("wizard_send_batch", obs.BatchBuckets),
		latAnswered: cfg.Obs.Histogram("wizard_latency_answered", obs.LatencyBuckets),
		latPartial:  cfg.Obs.Histogram("wizard_latency_partial", obs.LatencyBuckets),
		latStale:    cfg.Obs.Histogram("wizard_latency_stale_dropped", obs.LatencyBuckets),
		latParse:    cfg.Obs.Histogram("wizard_latency_parse_error", obs.LatencyBuckets),
		latRejected: cfg.Obs.Histogram("wizard_latency_rejected", obs.LatencyBuckets),
	}
	return w, nil
}

// Addr reports the bound UDP address; with shards, every socket
// shares this port.
func (w *Wizard) Addr() string { return w.shards[0].LocalAddr().String() }

// Shards reports how many sockets actually serve the port (the
// SO_REUSEPORT request may degrade to one off Linux).
func (w *Wizard) Shards() int { return len(w.shards) }

// ReplyErrors reports how many reply datagrams the kernel refused to
// send. The drain loop drops the reply and keeps going — the client
// retries like any other datagram loss — so this counter is the only
// visible trace of a saturated send path.
func (w *Wizard) ReplyErrors() uint64 { return w.replyErr.Value() }

// Handled reports the number of requests answered.
func (w *Wizard) Handled() uint64 { return w.handled.Value() }

// Rejected reports the number of requests answered with an error.
func (w *Wizard) Rejected() uint64 { return w.rejected.Value() }

// Stats is one coherent reading of the wizard's request counters.
type Stats struct {
	Handled, Rejected, UpdateFailures uint64
}

// Stats snapshots the counters with the invariant Rejected ≤ Handled
// guaranteed even against concurrent handlers. Reading the accessors
// one by one cannot promise that: a handler may land between the two
// loads in either order. Here rejected is read first; every rejected
// increment is sequenced after its request's handled increment, so
// any rejection this read observes has its request already counted in
// the later handled load.
func (w *Wizard) Stats() Stats {
	rej := w.rejected.Value()
	uf := w.updateFail.Value()
	return Stats{Handled: w.handled.Value(), Rejected: rej, UpdateFailures: uf}
}

// CacheStats reports the compiled-requirement cache's cumulative hit
// and miss counts.
func (w *Wizard) CacheStats() (hits, misses uint64) { return w.cache.Stats() }

// Run serves requests until the context is cancelled. Per shard, one
// ingest loop pulls batches off the socket, rate-limits by source and
// pushes the survivors (with their arrival timestamps) into that
// shard's admission queue; max(Workers, shards) drain loops pop them —
// loop j serves shard j mod shards, so no socket goes unanswered —
// shed what the queue's policy refuses with a cheap "overloaded,
// retry-after" reply so those clients back off instead of resending
// into the storm, answer the rest and flush the replies with one
// batched write. With Workers, Batch and Shards all 1 that is the
// thesis's sequential wizard: one datagram read, answered and written
// at a time, in arrival order.
//
// Shutdown: the context's end closes the sockets, every ingest loop
// surfaces net.ErrClosed and exits, the queues are closed behind them,
// and the drain loops empty what is left before exiting on the closed
// queues. One ingest loop's end, a failure included, ends the others
// and is Run's error, named. The sockets are closed however Run
// returns: a wizard whose loops failed, or never started, holds no port.
func (w *Wizard) Run(ctx context.Context) error {
	g, ctx := loop.NewGroup(ctx)
	for _, s := range w.shards {
		g.Close(s)
	}
	nshards := len(w.shards)
	drainers := max(w.cfg.Workers, nshards)
	batch := min(max(w.cfg.Batch, 1), netbatch.MaxBatch)
	// Every loop owns its endpoint (the syscall scratch is per endpoint;
	// loops sharing a socket are serialised by the kernel). They are all
	// built before any loop starts, so the loops themselves cannot fail
	// to start and leave a blocked Push with nobody to Pop.
	eps := make([]netbatch.Endpoint, nshards+drainers)
	for i := range eps {
		ep, err := netbatch.Wrap(w.shards[i%nshards], netbatch.Options{Batch: batch, Obs: w.cfg.Obs})
		if err != nil {
			_ = g.Wait()
			return fmt.Errorf("wizard: %w", err)
		}
		eps[i] = ep
		if w.testWrap != nil {
			eps[i] = w.testWrap(ep)
		}
	}
	queues := make([]*overload.Queue, nshards)
	for i := range queues {
		queues[i] = w.cfg.Overload.NewQueue(batch)
	}
	// Enough free buffers to fill every queue, every ingest ring and
	// every in-flight drain batch without the getter allocating in
	// steady state.
	w.freeBufs = make(chan []byte, nshards*(queues[0].Cap()+batch)+drainers*batch)

	for i := 0; i < nshards; i++ {
		g.Go(fmt.Sprintf("wizard: ingest %d", i), func(ctx context.Context) error { return w.ingest(ctx, eps[i], queues[i], batch) })
	}
	var drain sync.WaitGroup
	for j := 0; j < drainers; j++ {
		drain.Add(1)
		go func(j int) {
			defer drain.Done()
			w.drain(ctx, eps[nshards+j], queues[j%nshards], batch)
		}(j)
	}
	err := g.Wait()
	for _, q := range queues {
		q.Close()
	}
	drain.Wait()
	return err
}

// getBuf takes a receive buffer from the free list, allocating when
// it runs dry.
func (w *Wizard) getBuf() []byte {
	select {
	case b := <-w.freeBufs:
		return b
	default:
		return make([]byte, 64*1024)
	}
}

// putBuf returns a handed-off buffer once its datagram is answered.
func (w *Wizard) putBuf(b []byte) {
	select {
	case w.freeBufs <- b[:cap(b)]:
	default:
	}
}

// ingest is one shard's admission loop: read a batch, run the
// per-source token bucket, hand admitted datagrams (timestamped) to
// the shard queue and answer rate-limited or queue-evicted ones with
// shed replies. It does no parsing beyond the request header of the
// datagrams it sheds, so a storm's ingest cost stays near the syscall
// floor and the socket drains at wire speed — the queue, not the
// kernel buffer, is where excess load becomes measurable. Under the
// pass-through policy nothing is refused here and a full queue blocks
// the Push, which is what leaves the excess in the kernel buffer.
func (w *Wizard) ingest(ctx context.Context, ep netbatch.Endpoint, q *overload.Queue, batch int) error {
	gate := w.cfg.Overload
	rx := netbatch.NewBatch(batch, 64*1024)
	tx := netbatch.NewBatch(batch, 256) // shed replies are tiny
	var req proto.Request               // scratch for shed-reply seq extraction
	for {
		n, err := ep.ReadBatch(rx)
		if err != nil {
			return err
		}
		w.recvBatch.Observe(int64(n))
		now := time.Now()
		sheds := tx[:0]
		for i := 0; i < n; i++ {
			if !gate.AllowSource(rx[i].Addr, now) {
				sheds = w.appendShed(sheds, rx[i].Buf, rx[i].Addr, &req)
				continue
			}
			m := netbatch.Handoff(&rx[i], w.getBuf())
			if ev, dropped := q.Push(overload.Item{Buf: m.Buf, Addr: m.Addr, Enq: now}); dropped {
				sheds = w.appendShed(sheds, ev.Buf, ev.Addr, &req)
				w.putBuf(ev.Buf)
			}
		}
		w.flush(ctx, ep, sheds)
	}
}

// drain is one answer loop: pop the next queued request (blocking),
// take whatever else is ready up to a batch, answer or shed each as
// the queue's policy decides — before spending any answer-pipeline
// work on a shed one — and flush the replies with one batched write.
// Exits when the queue closes at shutdown.
func (w *Wizard) drain(ctx context.Context, ep netbatch.Endpoint, q *overload.Queue, batch int) {
	tx := netbatch.NewBatch(batch, 2048)
	var req proto.Request // scratch: refilled per datagram, never retained
	var reply proto.Reply
	for {
		it, ok := q.Pop()
		if !ok {
			return
		}
		select {
		case <-ctx.Done():
			// Shutting down: the sockets are closed, so nothing popped
			// from here on can be answered. Keep popping — a pass-through
			// Push may be blocked on this queue — but spend no answer
			// work (an Update can take seconds) on it.
			continue
		default:
		}
		replies := tx[:0]
		for {
			switch {
			case !q.AdmitDequeued(it, time.Now()):
				replies = w.appendShed(replies, it.Buf, it.Addr, &req)
			case w.handle(ctx, it.Buf, &req, &reply):
				replies = w.appendReply(replies, &reply, it.Addr)
			} // an undecodable request gets no reply
			w.putBuf(it.Buf)
			if len(replies) >= batch {
				break
			}
			next, more := q.TryPop()
			if !more {
				break
			}
			it = next
		}
		w.flush(ctx, ep, replies)
	}
}

// flush sends one loop's reply vector with a single batched write. A
// transient send failure (ENOBUFS under reply pressure) drops the
// unsent replies like any datagram loss, counts them and lets the loop
// keep serving; a failure because shutdown closed the socket is not an
// error at all.
func (w *Wizard) flush(ctx context.Context, ep netbatch.Endpoint, replies []netbatch.Message) {
	if len(replies) == 0 {
		return
	}
	w.sendBatch.Observe(int64(len(replies)))
	sent, err := ep.WriteBatch(replies)
	if err == nil || ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
		return
	}
	w.replyErr.Add(uint64(len(replies) - sent))
	w.logf("wizard: send replies: %v (%d of %d sent)", err, sent, len(replies))
}

// appendReply marshals reply into the next pooled slot of a reply
// vector (slot buffers grow once and are reused across batches).
func (w *Wizard) appendReply(out []netbatch.Message, reply *proto.Reply, addr netip.AddrPort) []netbatch.Message {
	j := len(out)
	out = out[:j+1]
	buf, err := proto.AppendReply(out[j].Buf[:0], reply)
	if err != nil {
		w.logf("wizard: marshal reply: %v", err)
		return out[:j]
	}
	out[j].Buf = buf
	out[j].Addr = addr
	return out
}

// appendShed appends an "overloaded, retry-after" reply for one shed
// request datagram onto the reply vector. The datagram is parsed only
// for its sequence number; an undecodable one gets no reply (there is
// no seq to answer). Shed requests are counted by the overload plane
// (overload_shed / overload_ratelimited), not in wizard_requests —
// that counter keeps meaning "requests the answer pipeline served".
func (w *Wizard) appendShed(out []netbatch.Message, datagram []byte, addr netip.AddrPort, req *proto.Request) []netbatch.Message {
	if err := proto.ParseRequest(datagram, req); err != nil {
		w.logf("wizard: dropping undecodable shed request: %v", err)
		return out
	}
	reply := proto.Reply{Seq: req.Seq, Err: proto.OverloadedErr(w.cfg.Overload.RetryAfter())}
	return w.appendReply(out, &reply, addr)
}

// handle processes one request datagram into the caller's scratch
// request and reply. It is the drain loops' zero-alloc path: the
// parsed Detail aliases the queued receive buffer (stable until the
// caller's putBuf) and the reply struct is reused across datagrams. It
// reports false when the datagram is undecodable and nothing should
// be answered.
func (w *Wizard) handle(ctx context.Context, datagram []byte, req *proto.Request, reply *proto.Reply) bool {
	if err := proto.ParseRequest(datagram, req); err != nil {
		w.logf("wizard: dropping request: %v", err)
		return false
	}
	start := time.Now()
	lat := w.answer(ctx, req, reply)
	lat.Observe(int64(time.Since(start)))
	w.handled.Add(1)
	if reply.Err != "" {
		w.rejected.Add(1)
	}
	return true
}

// Answer runs the full matching pipeline for one request and records
// its latency under the outcome it produced. It is exported so
// in-process deployments (and tests) can bypass UDP; it is safe to
// call from any number of goroutines.
func (w *Wizard) Answer(ctx context.Context, req *proto.Request) *proto.Reply {
	start := time.Now()
	reply := new(proto.Reply)
	lat := w.answer(ctx, req, reply)
	lat.Observe(int64(time.Since(start)))
	return reply
}

// answer is the pipeline body; it fills reply in place (resetting any
// previous contents) and reports which latency histogram the
// request's outcome belongs to so its caller can time the whole
// thing. It never retains req.Detail, so the text may alias a
// reusable receive buffer.
func (w *Wizard) answer(ctx context.Context, req *proto.Request, reply *proto.Reply) *obs.Histogram {
	*reply = proto.Reply{Seq: req.Seq}
	fail := func(format string, args ...any) {
		reply.Err = sanitize(fmt.Sprintf(format, args...))
	}

	detail := req.Detail
	if req.Option&proto.OptTemplate != 0 {
		tpl, ok := w.cfg.Templates[detail]
		if !ok {
			fail("unknown requirement template %q", detail)
			return w.latParse
		}
		detail = tpl
	}
	prog, err := w.cache.Get(detail)
	if err != nil {
		fail("parse requirement: %v", err)
		return w.latParse
	}
	if w.cfg.Update != nil {
		// Distributed mode: refresh the databases on demand (§3.5.1).
		if err := w.cfg.Update(ctx); err != nil {
			w.updateFail.Add(1)
			w.logf("wizard: update before request: %v", err)
			// Stale data beats no answer; continue with what we have.
		}
	}
	res, err := w.cfg.Selector.Select(prog, int(req.ServerNum), req.Option)
	if err != nil {
		fail("%v", err)
		if res.StaleDropped > 0 {
			// The shortfall came (at least partly) from records dropped
			// as stale — the signature of a silent probe fleet, kept
			// apart from ordinary "nothing qualifies" rejections.
			return w.latStale
		}
		return w.latRejected
	}
	reply.Servers = res.Servers
	if res.Shortfall > 0 {
		return w.latPartial
	}
	return w.latAnswered
}

// sanitize strips newlines so error text survives the reply format.
// Almost no error text carries one, and ReplaceAll returns its input
// uncopied when nothing matches.
func sanitize(s string) string { return strings.ReplaceAll(s, "\n", " ") }

func (w *Wizard) logf(format string, args ...any) {
	if w.cfg.Logger != nil {
		w.cfg.Logger.Printf(format, args...)
	}
}
