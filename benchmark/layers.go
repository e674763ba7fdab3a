package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"smartsock"
	"smartsock/internal/core"
	"smartsock/internal/index"
	"smartsock/internal/netbatch"
	"smartsock/internal/proto"
	"smartsock/internal/reqlang"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// rigCounters reads the cumulative counters of a wizard rig under the
// names the per-layer report uses; ratios are taken over their deltas.
func rigCounters(r *wizardRig) map[string]float64 {
	c := r.reg.Snapshot().Counters
	hits, misses := r.wz.CacheStats()
	return map[string]float64{
		"wizard.handled":       float64(r.wz.Handled()),
		"wizard.rejected":      float64(r.wz.Rejected()),
		"wizard.reply_errors":  float64(r.wz.ReplyErrors()),
		"overload.shed":        float64(r.gate.Shed()),
		"overload.ratelimited": float64(r.gate.RateLimited()),
		"netbatch.rx_syscalls": float64(c["netbatch_rx_syscalls"]),
		"reqlang.hits":         float64(hits),
		"reqlang.misses":       float64(misses),
		"core.selections":      float64(c["core_selections"]),
		"core.memo_hits":       float64(c["core_memo_hits"]),
		"core.record_evals":    float64(c["core_record_evals"]),
		"index.plans":          float64(c["index_plans"]),
		"index.rows_pruned":    float64(c["index_rows_pruned"]),
		"index.resyncs":        float64(c["index_resyncs"]),
	}
}

// cost is what one call of a probed function took, averaged over a probe.
type cost struct{ ns, allocs, bytes float64 }

// probe times fn for about budget. Without a before hook the calls run
// back to back in batches, so a 20 ns function is not drowned by the
// clock; with one, before runs untimed ahead of every call (its
// allocations, a record or two, are counted in with the call's).
func probe(budget time.Duration, before func() error, fn func() error) (cost, error) {
	var spent time.Duration
	calls, reps := 0, 1
	if err := callN(before, fn, 1); err != nil { // reach steady state untimed
		return cost{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for start := time.Now(); calls < 3 || time.Since(start) < budget; {
		if before != nil {
			if err := before(); err != nil {
				return cost{}, err
			}
		}
		t0 := time.Now()
		if err := callN(nil, fn, reps); err != nil {
			return cost{}, err
		}
		dt := time.Since(t0)
		spent += dt
		calls += reps
		if before == nil && dt < 50*time.Microsecond {
			reps *= 2
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(calls)
	return cost{
		ns:     float64(spent) / n,
		allocs: float64(m1.Mallocs-m0.Mallocs) / n,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
	}, nil
}

func callN(before, fn func() error, n int) error {
	for i := 0; i < n; i++ {
		if before != nil {
			if err := before(); err != nil {
				return err
			}
		}
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// Sinks keep what the probes compute from being optimised away. They are
// typed: storing a slice or a struct in an interface would allocate, and
// the allocation would be counted as the probed function's.
var (
	sinkBytes   []byte
	sinkStrings []string
	sinkSnap    *store.SysSnapshot
	sinkResult  core.Result
	sinkPtr     any // pointers only
)

// probeGroup names a set of layers. A workload's probes measure only the
// groups whose layers do its work (the table in README.md): timing
// status codecs on the inputs of a workload that never reports status
// would print a number no end-to-end metric of that workload can follow.
// A per-layer metric whose group a workload does not probe reads 0 there.
type probeGroup uint8

const (
	probeClient probeGroup = 1 << iota // smartsock: RequestServers alone, three dials
	probeServe                         // proto, reqlang, memoised Select, netbatch, the bare wizard
	probeSelect                        // core.Select after a change, index sync, store put and snapshot
	probeStatus                        // store deltas, status codecs, monitor ingest, transport pull
)

// probeCounts is how many timed probes each group makes; the budget is
// split evenly between the probes that run.
var probeCounts = map[probeGroup]int{probeClient: 2, probeServe: 10, probeSelect: 4, probeStatus: 8}

// prober carries what the probe groups share: the workload's inputs, a
// private copy of its fleet in a private database, and a ring of changed
// records to write into it.
type prober struct {
	ctx      context.Context
	env      probeEnv
	budget   time.Duration
	out      map[string]float64
	firstErr error
	rng      *rand.Rand
	k        int // rotates over the workload's requests

	reqs  []proto.Request
	progs []*reqlang.Program
	cache *reqlang.Cache

	fleet []status.ServerStatus
	db    *store.DB
	ring  []status.ServerStatus
	at    int
}

// run times one probe and files its mean under name ("" to file nothing).
func (p *prober) run(name string, before func() error, fn func() error) cost {
	c, err := probe(p.budget, before, fn)
	if err != nil && p.firstErr == nil {
		p.firstErr = fmt.Errorf("probe %s: %w", name, err)
	}
	if name != "" {
		p.out[name] = c.ns
	}
	return c
}

func (p *prober) fail(err error) {
	if err != nil && p.firstErr == nil {
		p.firstErr = err
	}
}

func (p *prober) nextReq() int { p.k = (p.k + 1) % len(p.env.reqs); return p.k }

// changed returns the next n ring records, re-jittered so that writing
// them again is a content change every time round.
func (p *prober) changed(n int) []status.ServerStatus {
	if p.at+n > len(p.ring) {
		p.at = 0
	}
	recs := p.ring[p.at : p.at+n]
	p.at += n
	for i := range recs {
		jitter(p.rng, &recs[i])
	}
	return recs
}

// put writes the next n changed records into the private database.
func (p *prober) put(n int) func() error {
	return func() error {
		for _, s := range p.changed(n) {
			p.db.PutSys(s)
		}
		return nil
	}
}

// runProbes measures each module of the workload's groups by calling its
// exported functions directly on the workload's own inputs: its fleet,
// its requests and its delta size. Everything is private to the probes
// except the workload's wizard, which wizard.* and smartsock.* call the
// way the workload does.
func runProbes(ctx context.Context, env probeEnv, seed int64, total time.Duration) (map[string]float64, error) {
	n := 1 // wizard.answer runs on every workload
	for g, c := range probeCounts {
		if env.groups&g != 0 {
			n += c
		}
	}
	p := &prober{ctx: ctx, env: env, budget: total / time.Duration(n), out: make(map[string]float64),
		rng: rand.New(rand.NewSource(seed ^ 0x9e37)), cache: reqlang.NewCache(reqlang.DefaultCacheSize)}
	p.reqs = make([]proto.Request, len(env.reqs))
	p.progs = make([]*reqlang.Program, len(env.reqs))
	for i, r := range env.reqs {
		p.reqs[i] = proto.Request{Seq: uint32(i + 1), ServerNum: uint16(r.n), Option: r.opt, Detail: r.text}
		var err error
		if p.progs[i], err = p.cache.Get(r.text); err != nil {
			return nil, err
		}
	}
	p.fleet = append([]status.ServerStatus(nil), env.fleet...)
	p.db = store.New()
	for _, s := range p.fleet {
		p.db.PutSys(s)
	}
	p.ring = make([]status.ServerStatus, 4*max(env.delta, 64))
	for i := range p.ring {
		p.ring[i] = p.fleet[i%len(p.fleet)]
		jitter(p.rng, &p.ring[i])
	}

	c := p.run("wizard.answer_ns", env.before, func() error {
		if reply := env.rig.wz.Answer(ctx, &p.reqs[p.nextReq()]); reply.Err != "" {
			return errors.New(reply.Err)
		}
		return nil
	})
	p.out["wizard.answer_allocs"] = c.allocs
	side := newProcs() // what the probes start beside the workload's rig
	if env.groups&probeClient != 0 {
		p.fail(p.client())
	}
	if env.groups&probeServe != 0 {
		p.fail(p.serve(side, seed))
	}
	if env.groups&probeSelect != 0 {
		p.fail(p.selection())
	}
	if env.groups&probeStatus != 0 {
		p.fail(p.statusPath(side))
	}
	p.fail(side.stop())
	// Let go of the fleet-sized results, or the next workload of an all-run
	// would count them in its live heap.
	sinkBytes, sinkStrings, sinkSnap, sinkResult, sinkPtr = nil, nil, nil, core.Result{}, nil
	return p.out, p.firstErr
}

// client is the smartsock group: the exchange alone, and the three dials.
func (p *prober) client() error {
	client, err := smartsock.NewClient(p.env.rig.wz.Addr(), nil)
	if err != nil {
		return err
	}
	c := p.run("", p.env.before, func() (err error) {
		r := &p.env.reqs[p.nextReq()]
		sinkStrings, err = client.RequestServers(p.ctx, r.text, r.n, r.opt)
		return
	})
	p.out["smartsock.request_us"] = c.ns / 1e3
	p.out["smartsock.alloc_kb_per_request"] = c.bytes / 1024
	c = p.run("", nil, func() error {
		for _, addr := range p.env.dial {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return err
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.SetLinger(0) // see connectInst.step
			}
			if err := conn.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	p.out["smartsock.dial_us"] = c.ns / 1e3
	return nil
}

// serve is the per-datagram group: the codecs on recorded datagrams, the
// requirement cache, the memoised selection, the socket layer, and the
// same stream against the other serve architecture.
func (p *prober) serve(side *procs, seed int64) error {
	env := p.env
	dgrams := make([][]byte, len(p.reqs))
	replies := make([]*proto.Reply, len(p.reqs))
	replyDgrams := make([][]byte, len(p.reqs))
	for i := range p.reqs {
		dgrams[i] = proto.MarshalRequest(&p.reqs[i])
		replies[i] = env.rig.wz.Answer(p.ctx, &p.reqs[i])
		if replies[i].Err != "" {
			return fmt.Errorf("wizard refused text %d: %s", i, replies[i].Err)
		}
		var err error
		if replyDgrams[i], err = proto.MarshalReply(replies[i]); err != nil {
			return err
		}
	}
	p.run("proto.marshal_request_ns", nil, func() error { sinkBytes = proto.MarshalRequest(&p.reqs[p.nextReq()]); return nil })
	var scratch proto.Request
	p.run("proto.parse_request_ns", nil, func() error { return proto.ParseRequest(dgrams[p.nextReq()], &scratch) })
	var rbuf []byte
	p.run("proto.append_reply_ns", nil, func() (err error) { rbuf, err = proto.AppendReply(rbuf[:0], replies[p.nextReq()]); return })
	p.run("proto.unmarshal_reply_ns", nil, func() (err error) { sinkPtr, err = proto.UnmarshalReply(replyDgrams[p.nextReq()]); return })

	p.run("reqlang.cache_get_ns", nil, func() (err error) { sinkPtr, err = p.cache.Get(env.reqs[p.nextReq()].text); return })
	p.run("reqlang.compile_ns", nil, func() (err error) { sinkPtr, err = reqlang.Parse(env.reqs[p.nextReq()].text); return })

	sel, err := core.New(p.db, core.Config{})
	if err != nil {
		return err
	}
	p.run("core.select_memo_ns", nil, func() (err error) {
		r := &env.reqs[p.nextReq()]
		sinkResult, err = sel.Select(p.progs[p.k], r.n, r.opt)
		return
	})

	rx, tx, err := probeNetbatch(2*p.budget, dgrams)
	if err != nil {
		return err
	}
	p.out["netbatch.rx_ns_per_dgram"], p.out["netbatch.tx_ns_per_dgram"] = rx, tx

	// The other serve architecture: the same stream of requests, 32 in
	// flight, against a wizard with the admission plane off.
	bareDB := store.New()
	for _, s := range p.fleet {
		bareDB.PutSys(s)
	}
	bare, err := bootWizard(side, bareDB, 0, nil)
	if err != nil {
		return err
	}
	sc, err := newStormClient(bare.wz.Addr(), env.reqs, p.fleet, uint32(seed))
	if err != nil {
		return err
	}
	rec := &recorder{}
	start := time.Now()
	for time.Since(start) < p.budget || rec.attempted == 0 {
		sc.step(rec)
	}
	if v := rec.verified(); v > 0 {
		p.out["wizard.bare_ns_per_req"] = float64(time.Since(start)) / float64(v)
	}
	if rec.failed > 0 {
		p.fail(fmt.Errorf("bare wizard stream: %d of %d failed: %s", rec.failed, rec.attempted, rec.firstErr))
	}
	return sc.close()
}

// selection is the group a changing table exercises: a write, the snapshot
// rebuild after it, a full selection and the index's delta sync.
func (p *prober) selection() error {
	env := p.env
	one := p.changed(len(p.ring))
	j := 0
	p.run("store.put_sys_ns", nil, func() error {
		// Nudge a value so every put is a content change.
		j = (j + 1) % len(one)
		one[j].Load15 += 0.0001
		p.db.PutSys(one[j])
		return nil
	})
	p.run("store.sysview_ns", p.put(1), func() error { sinkSnap = p.db.SysView(); return nil })

	// OptPartialOK so a change that disqualifies a host the text needs is a
	// short answer, not an error.
	sel, err := core.New(p.db, core.Config{})
	if err != nil {
		return err
	}
	c := p.run("core.select_ns", p.put(1), func() (err error) {
		r := &env.reqs[p.nextReq()]
		sinkResult, err = sel.Select(p.progs[p.k], r.n, r.opt|proto.OptPartialOK)
		return
	})
	p.out["core.select_allocs"] = c.allocs
	p.out["core.select_alloc_kb"] = c.bytes / 1024

	idx := index.New(p.db, nil)
	var snap *store.SysSnapshot
	p.run("index.sync_ns", func() error {
		if err := p.put(env.delta)(); err != nil {
			return err
		}
		snap = p.db.SysView()
		return nil
	}, func() error {
		if !idx.SyncFor(snap, env.reqs[0].fields) {
			return errors.New("index could not serve the current snapshot")
		}
		return nil
	})
	return nil
}

// statusPath is the group a status epoch exercises: the change log and the
// mirror's apply, the codecs on one epoch's records, and a private
// monitor → transmitter → receiver path over the same fleet.
func (p *prober) statusPath(side *procs) error {
	env := p.env
	var sysD status.SysDelta
	var netD status.NetDelta
	var secD status.SecDelta
	var base uint64
	p.run("store.changed_since_ns", func() error { base = p.db.Ver(); return p.put(env.delta)() }, func() error {
		if _, ok := p.db.ChangedSince(base, &sysD, &netD, &secD); !ok {
			return errors.New("ChangedSince refused a base one delta old")
		}
		return nil
	})
	mirror := store.New()
	for _, s := range p.fleet {
		mirror.PutSys(s)
	}
	var delta []status.ServerStatus
	p.run("store.apply_delta_ns", func() error { delta = p.changed(env.delta); return nil },
		func() error { mirror.ApplySysDelta(delta, nil, nil); return nil })

	epoch := p.changed(env.delta)
	encoded := make([][]byte, len(epoch))
	for i := range epoch {
		encoded[i] = status.EncodeReport(&epoch[i])
	}
	j := 0
	p.run("status.encode_report_ns", nil, func() error { j = (j + 1) % len(epoch); sinkBytes = status.EncodeReport(&epoch[j]); return nil })
	p.run("status.decode_report_ns", nil, func() (err error) {
		j = (j + 1) % len(epoch)
		sinkPtr, err = status.DecodeReport(encoded[j])
		return
	})
	frame := status.SysDelta{BaseVer: 1, NewVer: 1 + uint64(len(epoch)), Changed: epoch}
	var fbuf []byte
	p.run("status.append_sys_delta_ns", nil, func() error { fbuf = status.AppendSysDelta(fbuf[:0], &frame); return nil })
	p.out["status.delta_bytes_per_epoch"] = float64(len(fbuf))
	var view status.SysDeltaView
	p.run("status.parse_sys_delta_ns", nil, func() error { return view.Parse(fbuf) })

	st, err := bootStatus(side, store.New(), nil)
	if err == nil {
		err = st.load(p.fleet)
	}
	if err == nil {
		err = st.pull(p.ctx) // the first pull is a full snapshot; deltas from here on
	}
	if err != nil {
		return err
	}
	var batch []*status.ServerStatus
	var target uint64
	report := func() error {
		batch = batch[:0]
		recs := p.changed(env.delta)
		for i := range recs {
			batch = append(batch, &recs[i])
		}
		target = st.mon.Received() + uint64(len(batch))
		return st.send(batch)
	}
	c := p.run("", report, func() error { return st.ingested(target) })
	p.out["monitor.ingest_us_per_report"] = c.ns / 1e3 / float64(env.delta)
	c = p.run("", func() error {
		if err := report(); err != nil {
			return err
		}
		return st.ingested(target)
	}, func() error { return st.pull(p.ctx) })
	p.out["transport.pull_us"] = c.ns / 1e3
	// The probe's own status path must be as clean as the workload's.
	p.out["monitor.dropped"] = float64(st.mon.Dropped())
	p.out["transport.resyncs"] = float64(st.recv.Resyncs())
	p.out["transport.torn"] = float64(st.recv.Torn())
	return nil
}

// probeNetbatch moves full batches of the workload's request datagrams
// through a loopback socket pair and times the send and the receive
// apart; every datagram is queued before the read, so neither side waits.
func probeNetbatch(budget time.Duration, dgrams [][]byte) (rxNS, txNS float64, err error) {
	laddr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	a, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	b, err := net.DialUDP("udp", nil, a.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	in, err := netbatch.Wrap(a, netbatch.Options{Batch: daemonBatch})
	if err != nil {
		return 0, 0, err
	}
	outc, err := netbatch.Wrap(b, netbatch.Options{Batch: daemonBatch})
	if err != nil {
		return 0, 0, err
	}
	txv := netbatch.NewBatch(daemonBatch, 512)
	for i := range txv {
		txv[i].Buf = append(txv[i].Buf[:0], dgrams[i%len(dgrams)]...)
	}
	rxv := netbatch.NewBatch(daemonBatch, 2048)
	var rxT, txT time.Duration
	n := 0
	for start := time.Now(); n == 0 || time.Since(start) < budget; n += daemonBatch {
		t0 := time.Now()
		if sent, err := outc.WriteBatch(txv); err != nil || sent != daemonBatch {
			return 0, 0, fmt.Errorf("netbatch probe sent %d of %d: %v", sent, daemonBatch, err)
		}
		t1 := time.Now()
		txT += t1.Sub(t0)
		if err := a.SetReadDeadline(t1.Add(time.Second)); err != nil {
			return 0, 0, err
		}
		for got := 0; got < daemonBatch; {
			m, err := in.ReadBatch(rxv)
			if err != nil {
				return 0, 0, fmt.Errorf("netbatch probe read: %w", err)
			}
			got += m
		}
		rxT += time.Since(t1)
	}
	return float64(rxT) / float64(n), float64(txT) / float64(n), nil
}
