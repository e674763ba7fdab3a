package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"smartsock"
	"smartsock/internal/monitor"
	"smartsock/internal/netbatch"
	"smartsock/internal/obs"
	"smartsock/internal/status"
	"smartsock/internal/store"
	"smartsock/internal/transport"
)

const (
	epochReports = 64              // reports in one status epoch
	ingestWait   = 2 * time.Second // reports not ingested by then fail the epoch
)

// statusRig is the status path in distributed-pull mode, driven
// synchronously: reports → monitor → monitor DB → passive transmitter ←
// receiver (pulled by the wizard before each request) → wizard DB. The
// monitor's interval is a minute, so no expiry or resync tick fires
// inside a run, and no ticker is in the path.
type statusRig struct {
	reg   *obs.Registry // the monitor machine's registry (sysmond -debug)
	mdb   *store.DB
	mon   *monitor.Monitor
	tx    *transport.Transmitter
	txAt  string
	recv  *transport.Receiver
	probe *netbatch.Conn // the socket every probe report leaves from
	out   []netbatch.Message
}

// bootStatus starts the monitor, the passive transmitter and a receiver
// that mirrors into wdb, with the wizard registry wreg.
func bootStatus(p *procs, wdb *store.DB, wreg *obs.Registry) (*statusRig, error) {
	s := &statusRig{reg: obs.NewRegistry(), mdb: store.New()}
	s.mdb.RegisterObs(s.reg, "monitor")
	var err error
	s.mon, err = monitor.New(monitor.Config{
		Addr: "127.0.0.1:0", DB: s.mdb, Interval: time.Minute,
		Batch: daemonBatch, Shards: daemonShards, Logger: daemonLog, Obs: s.reg,
	})
	if err != nil {
		return nil, err
	}
	p.run("monitor", s.mon.Run)
	if s.tx, err = transport.NewTransmitterObs(s.mdb, daemonLog, s.reg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.txAt = ln.Addr().String()
	p.run("transmitter", func(ctx context.Context) error { return s.tx.ServePassive(ctx, ln) })
	if s.recv, err = transport.NewReceiverObs(wdb, "127.0.0.1:0", daemonLog, wreg); err != nil {
		return nil, err
	}
	// wizardd in pull mode never serves the receiver's listener; Run is
	// here only because it is what closes that listener at teardown.
	p.run("receiver", s.recv.Run)
	// Every epoch opens one pull connection. Closed in order, each would
	// sit in TIME_WAIT for a minute — tens of thousands by the end of a
	// run and more in the next; a reset close leaves none.
	s.recv.Dial = func(network, addr string) (net.Conn, error) {
		c, err := net.DialTimeout(network, addr, 2*time.Second)
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetLinger(0) // best effort: a lingering close is only slower
		}
		return c, err
	}
	maddr, err := net.ResolveUDPAddr("udp", s.mon.Addr())
	if err != nil {
		return nil, err
	}
	udp, err := net.DialUDP("udp", nil, maddr)
	if err != nil {
		return nil, err
	}
	if s.probe, err = netbatch.Wrap(udp, netbatch.Options{Batch: daemonBatch}); err != nil {
		_ = udp.Close()
		return nil, err
	}
	p.run("probe socket", func(ctx context.Context) error { <-ctx.Done(); return s.probe.Close() })
	return s, nil
}

// pull is the wizard's per-request update hook in distributed mode.
func (s *statusRig) pull(context.Context) error {
	return s.recv.PullFrom([]string{s.txAt}, 2*time.Second)
}

// send ships one report per record on the probe socket and returns when
// the last has left.
func (s *statusRig) send(recs []*status.ServerStatus) error {
	s.out = s.out[:0]
	for _, r := range recs {
		s.out = append(s.out, netbatch.Message{Buf: status.EncodeReport(r)})
	}
	sent, err := s.probe.WriteBatch(s.out)
	if err == nil && sent != len(recs) {
		err = fmt.Errorf("sent %d of %d reports", sent, len(recs))
	}
	return err
}

// ingested waits until the monitor has taken in target reports in all.
// The generator shares the process's one P with the servers (see main),
// so it has to park for them to run: a 1 µs sleep hands the P to whatever
// the poller finds ready — the monitor, whose datagrams loopback has
// already delivered — and the expired timer takes it back as soon as the
// monitor blocks again. runtime.Gosched would not do: a goroutine that
// stays runnable keeps the scheduler from polling the network at all.
func (s *statusRig) ingested(target uint64) error {
	deadline := time.Now().Add(ingestWait)
	for s.mon.Received() < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("monitor ingested %d of %d reports within %v (%d dropped)",
				s.mon.Received(), target, ingestWait, s.mon.Dropped())
		}
		time.Sleep(time.Microsecond)
	}
	return nil
}

// load reports a whole fleet, in batches the monitor's socket buffer holds.
func (s *statusRig) load(fleet []status.ServerStatus) error {
	batch := make([]*status.ServerStatus, 0, epochReports)
	base := s.mon.Received()
	for i := range fleet {
		batch = append(batch, &fleet[i])
		if len(batch) == cap(batch) || i == len(fleet)-1 {
			if err := s.send(batch); err != nil {
				return err
			}
			if err := s.ingested(base + uint64(i) + 1); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	return nil
}

// freshInst drives status epochs: 64 hosts report changed values, one of
// them as the epoch's sentinel, and the op succeeds only if the wizard's
// next answer is that sentinel — the reply reflects the write.
type freshInst struct {
	p        *procs
	rig      *wizardRig
	st       *statusRig
	client   *smartsock.Client
	fleet    []status.ServerStatus
	rng      *rand.Rand
	cursor   int
	sentinel int // index of the current sentinel, -1 before the first epoch
	batch    []*status.ServerStatus
}

func setupFresh(seed int64, sz sizes) (instance, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	f := &freshInst{p: newProcs(), rng: rand.New(rand.NewSource(seed)), sentinel: -1}
	f.fleet = bigFleet(f.rng, sz.hosts)
	st.build = time.Since(t0)
	t0 = time.Now()
	wdb := store.New()
	var err error
	// The hook reads f.st when a request arrives, after it is set below.
	f.rig, err = bootWizard(f.p, wdb, daemonMaxQueue, func(ctx context.Context) error { return f.st.pull(ctx) })
	if err == nil {
		f.st, err = bootStatus(f.p, wdb, f.rig.reg)
	}
	if err == nil {
		f.st.recv.Overload = f.rig.gate
		err = f.st.load(f.fleet)
	}
	if err == nil {
		f.client, err = smartsock.NewClient(f.rig.wz.Addr(), nil)
	}
	if err != nil {
		return nil, st, errors.Join(err, f.p.stop())
	}
	st.boot = time.Since(t0)
	return f, st, nil
}

// nextEpoch picks the epoch's hosts round-robin, gives each changed
// values, returns the previous sentinel to normal (it reports too) and
// makes the last host of the batch the new one.
func (f *freshInst) nextEpoch() []*status.ServerStatus {
	f.batch = f.batch[:0]
	if f.sentinel >= 0 {
		f.batch = append(f.batch, &f.fleet[f.sentinel])
	}
	for len(f.batch) < epochReports {
		f.batch = append(f.batch, &f.fleet[f.cursor])
		f.cursor = (f.cursor + 1) % len(f.fleet)
	}
	for _, s := range f.batch {
		jitter(f.rng, s)
	}
	f.sentinel = (f.cursor + len(f.fleet) - 1) % len(f.fleet)
	f.fleet[f.sentinel].Load1 = sentinelLoad
	return f.batch
}

// report runs an epoch's status half and returns when the first report
// left: the reports are in the monitor's database when it returns, and the
// next request has to fetch them.
func (f *freshInst) report(tr *tracer) (time.Time, error) {
	batch := f.nextEpoch()
	base := f.st.mon.Received()
	sp := tr.begin("status.EncodeReport+send")
	t0 := time.Now()
	err := f.st.send(batch)
	tr.end(sp)
	if err == nil {
		sp = tr.begin("monitor.ingest")
		err = f.st.ingested(base + uint64(len(batch)))
		tr.end(sp)
	}
	return t0, err
}

func (f *freshInst) step(rec *recorder) {
	root := rec.tr.begin("op")
	defer rec.tr.end(root)
	t0, err := f.report(rec.tr)
	want := f.fleet[f.sentinel].Host
	var servers []string
	if err == nil {
		sp := rec.tr.begin("smartsock.RequestServers")
		servers, err = f.client.RequestServers(f.p.ctx, sentinelReq.text, sentinelReq.n)
		rec.tr.end(sp)
	}
	d := time.Since(t0)
	if err == nil && (len(servers) != 1 || servers[0] != want) {
		err = fmt.Errorf("reply %v does not reflect the epoch's sentinel %s", servers, want)
	}
	if err != nil {
		rec.fail(err.Error())
		return
	}
	rec.ok(d)
}

func (f *freshInst) env() probeEnv {
	return probeEnv{fleet: f.fleet, reqs: []requirement{sentinelReq}, delta: epochReports, rig: f.rig,
		groups: probeSelect | probeStatus,
		before: func() error { _, err := f.report(nil); return err }}
}

func (f *freshInst) counters() map[string]float64 {
	c := rigCounters(f.rig)
	c["monitor.dropped"] = float64(f.st.mon.Dropped())
	c["transport.resyncs"] = float64(f.st.recv.Resyncs())
	c["transport.torn"] = float64(f.st.recv.Torn())
	return c
}

func (f *freshInst) close() error { return f.p.stop() }
