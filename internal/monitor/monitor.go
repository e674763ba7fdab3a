// Package monitor implements the system status monitor of §3.2.2: it
// receives probe reports, upserts them into the shared status
// database, and expires records whose probe has gone silent for
// several intervals so that servers can join and leave the pool at
// any time.
//
// Reports normally arrive as UDP datagrams; a TCP listener accepts
// framed reports from probes running in the Chapter 6 TCP mode. The
// UDP ingest rides the batched datagram plane (internal/netbatch):
// Batch > 1 moves up to that many reports per recvmmsg, and
// Shards > 1 spreads probe flows across SO_REUSEPORT sockets. Both
// default off (the one-syscall-per-report loop); sysmond and the
// testbed run netbatch.DefaultBatch.
package monitor

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"smartsock/internal/loop"
	"smartsock/internal/netbatch"
	"smartsock/internal/obs"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// Config parameterises a system monitor.
type Config struct {
	// Addr is the listen address, host:port. Port 0 picks an ephemeral
	// port; see Monitor.Addr.
	Addr string
	// DB is the shared status database the monitor writes.
	DB *store.DB
	// Interval is the expected probe interval; records older than
	// MissedIntervals×Interval are expired. Defaults to 5 s.
	Interval time.Duration
	// MissedIntervals before a server is declared failed (§4.1 uses
	// 3). Defaults to 3.
	MissedIntervals int
	// EnableTCP additionally listens for framed TCP reports on the
	// same port number.
	EnableTCP bool
	// ExpireAll additionally ages out network and security records in
	// the expiry sweep. They decay slower than server records — their
	// sources report far less often — so the horizon is 4× the server
	// one. Off by default to preserve the historical behaviour where
	// only sysdb records expire.
	ExpireAll bool
	// Batch is the most report datagrams one socket syscall may move
	// on the ingest loop (recvmmsg on Linux). 0 and 1 both select the
	// historical one-syscall-per-datagram mode; values above
	// netbatch.MaxBatch are clamped. Wire behaviour is identical at
	// every setting.
	Batch int
	// Shards is the number of SO_REUSEPORT sockets bound to Addr so
	// the kernel load-balances probe flows across ingest loops. 0 and
	// 1 bind a single socket. Off Linux the setting degrades to one
	// socket (counted by netbatch_fallback).
	Shards int
	// Logger receives decode errors; nil silences them.
	Logger *log.Logger
	// Obs, when set, registers the monitor's counters (monitor_reports,
	// monitor_reports_dropped, monitor_expired); nil detaches them.
	Obs *obs.Registry
}

// Monitor is a running system status monitor.
type Monitor struct {
	cfg      Config
	shards   []*net.UDPConn // ≥1 sockets; >1 share the port via SO_REUSEPORT
	tcp      net.Listener
	received *obs.Counter // monitor_reports: valid reports ingested
	dropped  *obs.Counter // monitor_reports_dropped: undecodable reports
	expired  *obs.Counter // monitor_expired: records aged out
}

// New binds the monitor's sockets. Call Run to start serving.
func New(cfg Config) (*Monitor, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("monitor: nil database")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.MissedIntervals <= 0 {
		cfg.MissedIntervals = 3
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("monitor: %d shards", cfg.Shards)
	}
	udpAddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: resolve %q: %w", cfg.Addr, err)
	}
	// With TCP enabled on an ephemeral port, the kernel-picked UDP
	// port may already be taken on the TCP side by some other process;
	// retry with a fresh pick rather than failing on the collision.
	attempts := 1
	if cfg.EnableTCP && udpAddr.Port == 0 {
		attempts = 16
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		shards, err := netbatch.ListenShards(cfg.Addr, max(cfg.Shards, 1), cfg.Obs)
		if err != nil {
			return nil, fmt.Errorf("monitor: listen udp: %w", err)
		}
		m := &Monitor{
			cfg:      cfg,
			shards:   shards,
			received: cfg.Obs.Counter("monitor_reports"),
			dropped:  cfg.Obs.Counter("monitor_reports_dropped"),
			expired:  cfg.Obs.Counter("monitor_expired"),
		}
		if !cfg.EnableTCP {
			return m, nil
		}
		tcp, err := net.Listen("tcp", shards[0].LocalAddr().String())
		if err == nil {
			m.tcp = tcp
			return m, nil
		}
		// The UDP side is abandoned for a fresh port pick; the listen
		// error is the one worth keeping.
		for _, s := range shards {
			_ = s.Close()
		}
		lastErr = err
	}
	return nil, fmt.Errorf("monitor: listen tcp: %w", lastErr)
}

// Addr reports the bound UDP address (useful with port 0); with
// shards, every socket shares this port.
func (m *Monitor) Addr() string { return m.shards[0].LocalAddr().String() }

// Shards reports how many sockets actually ingest reports (the
// SO_REUSEPORT request may degrade to one off Linux).
func (m *Monitor) Shards() int { return len(m.shards) }

// Received reports how many valid reports have been ingested.
func (m *Monitor) Received() uint64 { return m.received.Value() }

// Dropped reports how many undecodable reports were discarded.
func (m *Monitor) Dropped() uint64 { return m.dropped.Value() }

// Run serves until the context is cancelled or one of its loops ends —
// an ingest loop per shard socket (the kernel's SO_REUSEPORT flow hash
// spreads probes across them), the expire loop or the TCP accept loop —
// and returns, with that loop's end as its error, only once its sockets
// are closed and every loop and handler has exited.
func (m *Monitor) Run(ctx context.Context) error {
	g, _ := loop.NewGroup(ctx)
	for i, s := range m.shards {
		g.Close(s) // the ingest loop surfaces this close as net.ErrClosed
		g.Go(fmt.Sprintf("monitor: udp shard %d", i), func(context.Context) error { return m.serveUDP(s) })
	}
	// Sweeping at half the horizon, a dead server lingers at most
	// MissedIntervals+0.5 intervals.
	maxAge := time.Duration(m.cfg.MissedIntervals) * m.cfg.Interval
	g.Go("monitor: expiry", func(ctx context.Context) error {
		return loop.Every(ctx, maxAge/2, nil, func() error { m.expire(maxAge); return nil })
	})
	if m.tcp != nil {
		g.Go("monitor: tcp", func(ctx context.Context) error { return loop.Serve(ctx, m.tcp, m.serveTCP) })
	}
	return g.Wait()
}

// serveUDP is one shard's ingest loop: pull a batch of report
// datagrams and upsert each. Steady-state ingest costs zero
// per-datagram heap allocations (the seed loop's ReadFromUDP minted a
// *net.UDPAddr per report). Any read error ends it, Run's close too.
func (m *Monitor) serveUDP(conn *net.UDPConn) error {
	ep, err := netbatch.Wrap(conn, netbatch.Options{Batch: m.cfg.Batch, Obs: m.cfg.Obs})
	if err != nil {
		return err
	}
	rx := netbatch.NewBatch(ep.Batch(), 64*1024)
	recs, errs := make([]status.ServerStatus, ep.Batch()), make([]error, ep.Batch())
	for {
		n, err := ep.ReadBatch(rx)
		if err != nil {
			return err
		}
		m.ingest(recs[:n], errs, rx)
	}
}

// ingest decodes recs from msgs, each over its last report and interning
// hosts against the database under one read lock, then upserts each.
func (m *Monitor) ingest(recs []status.ServerStatus, errs []error, msgs []netbatch.Message) {
	m.cfg.DB.SysNames(func(names status.Names) {
		for i := range recs {
			errs[i] = status.DecodeReportInto(&recs[i], msgs[i].Buf, names)
		}
	})
	for i := range recs {
		if errs[i] != nil {
			m.dropped.Add(1)
			m.logf("monitor: dropping report: %v", errs[i])
		} else {
			m.cfg.DB.PutSys(recs[i])
			m.received.Add(1)
		}
	}
}

// serveTCP ingests the framed reports of one TCP probe connection.
func (m *Monitor) serveTCP(_ context.Context, c net.Conn) {
	if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return
	}
	var buf []byte // one payload buffer for the connection's frames
	var rec [1]status.ServerStatus
	var errs [1]error
	for {
		var f status.Frame
		var err error
		f, buf, err = status.ReadFrameInto(c, buf)
		if err != nil {
			return
		}
		if f.Type != status.TypeSystem {
			m.logf("monitor: unexpected frame type %v over tcp", f.Type)
			return
		}
		m.ingest(rec[:], errs[:], []netbatch.Message{{Buf: f.Data}})
	}
}

// expire is one sweep: it removes the records past the horizon.
func (m *Monitor) expire(maxAge time.Duration) {
	gone := m.cfg.DB.ExpireSys(maxAge)
	if len(gone) > 0 {
		m.expired.Add(uint64(len(gone)))
		m.logf("monitor: expired silent servers %v", gone)
	}
	if m.cfg.ExpireAll {
		n := m.cfg.DB.ExpireNet(4 * maxAge)
		n += m.cfg.DB.ExpireSec(4 * maxAge)
		if n > 0 {
			m.expired.Add(uint64(n))
			m.logf("monitor: expired %d stale net/sec records", n)
		}
	}
}

func (m *Monitor) logf(format string, args ...any) {
	if m.cfg.Logger != nil {
		m.cfg.Logger.Printf(format, args...)
	}
}
