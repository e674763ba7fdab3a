// Package probe implements the server probe of §3.2.1: a small agent
// running on every server that periodically scans the system status
// source and reports it to the system monitor.
//
// Reports travel over UDP by default — the monitor sits in the local
// network, losses are rare and the overhead matters more than
// reliability (§3.2.1). A UDP probe keeps one socket to the monitor
// across reports. The Chapter 6 TCP mode is also implemented: a probe
// can be switched to TCP for long reports on congested networks.
package probe

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"smartsock/internal/loop"
	"smartsock/internal/retry"
	"smartsock/internal/status"
	"smartsock/internal/sysinfo"
)

// Transport selects the report protocol.
type Transport int

const (
	// UDP sends each report as one datagram (default, §3.2.1).
	UDP Transport = iota
	// TCP opens a short-lived connection per report (Ch. 6: for long
	// reports on lossy networks).
	TCP
)

func (t Transport) String() string {
	if t == TCP {
		return "tcp"
	}
	return "udp"
}

// Config parameterises a probe.
type Config struct {
	// Source supplies status snapshots (live /proc or synthetic).
	Source sysinfo.Source
	// Monitor is the system monitor's report address, host:port.
	Monitor string
	// Interval between scans; the thesis runs 2–10 s. Defaults to 5 s.
	Interval time.Duration
	// Transport is UDP (default) or TCP.
	Transport Transport
	// Dial opens the report socket; nil means net.Dial. The chaos
	// layer injects lossy or partitioned wrappers here.
	Dial func(network, addr string) (net.Conn, error)
	// Logger receives scan errors; nil silences them.
	Logger *log.Logger
}

// Probe periodically reports server status to a system monitor.
type Probe struct {
	cfg Config

	connMu sync.Mutex
	conn   net.Conn // persistent UDP report socket
	closed bool
}

// New validates the config and builds a probe.
func New(cfg Config) (*Probe, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("probe: nil status source")
	}
	if cfg.Monitor == "" {
		return nil, fmt.Errorf("probe: empty monitor address")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	return &Probe{cfg: cfg}, nil
}

// Close releases the probe's report socket. Run closes automatically;
// call Close only when driving ReportOnce by hand.
func (p *Probe) Close() error {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	p.closed = true
	if p.conn != nil {
		err := p.conn.Close()
		p.conn = nil
		return err
	}
	return nil
}

// Run scans and reports until the context is cancelled. The first
// report goes out immediately so a freshly started server enters the
// pool without waiting a full interval. Consecutive failures back the
// report cadence off exponentially (bounded, jittered) so a dead or
// unreachable monitor is not hammered at full rate; the first success
// re-registers the probe and restores the normal interval.
func (p *Probe) Run(ctx context.Context) error {
	defer p.Close()
	bo := &retry.Backoff{Base: p.cfg.Interval, Max: 8 * p.cfg.Interval}
	return loop.Every(ctx, p.cfg.Interval, bo, func() error {
		err := p.ReportOnce()
		if err != nil {
			p.logf("probe: %v", err)
		}
		return err
	})
}

var reportBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// ReportOnce performs a single scan-and-send cycle.
func (p *Probe) ReportOnce() error {
	snap, err := p.cfg.Source.Snapshot()
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	// ReportOnce may run beside Run, so the buffer comes from a pool
	// rather than the probe; neither transport keeps msg past send.
	buf := reportBufs.Get().(*[]byte)
	defer reportBufs.Put(buf)
	*buf = status.AppendReport((*buf)[:0], &snap)
	return p.send(*buf)
}

func (p *Probe) send(msg []byte) error {
	switch p.cfg.Transport {
	case TCP:
		conn, err := p.dial("tcp", p.cfg.Monitor)
		if err != nil {
			return fmt.Errorf("dial monitor: %w", err)
		}
		defer conn.Close()
		err = status.WriteFrame(conn, status.Frame{Type: status.TypeSystem, Data: msg})
		if err != nil {
			return fmt.Errorf("send report: %w", err)
		}
		return nil
	default:
		conn, err := p.udpConn()
		if err != nil {
			return fmt.Errorf("dial monitor: %w", err)
		}
		if _, err := conn.Write(msg); err != nil {
			// A broken socket is replaced on the next report.
			p.connMu.Lock()
			if p.conn == conn {
				// Already failing; the close error adds nothing.
				_ = p.conn.Close()
				p.conn = nil
			}
			p.connMu.Unlock()
			return fmt.Errorf("send report: %w", err)
		}
		return nil
	}
}

// udpConn lazily opens the probe's persistent report socket, so a
// report costs no dial. The dial happens outside the mutex — a slow
// resolver must not block Close — with a re-check after reacquiring
// it; a racing dial loses and closes its socket.
func (p *Probe) udpConn() (net.Conn, error) {
	p.connMu.Lock()
	if p.closed {
		p.connMu.Unlock()
		return nil, fmt.Errorf("probe is closed")
	}
	if p.conn != nil {
		conn := p.conn
		p.connMu.Unlock()
		return conn, nil
	}
	p.connMu.Unlock()

	conn, err := p.dial("udp", p.cfg.Monitor)
	if err != nil {
		return nil, err
	}
	p.connMu.Lock()
	defer p.connMu.Unlock()
	if p.closed {
		_ = conn.Close()
		return nil, fmt.Errorf("probe is closed")
	}
	if p.conn != nil {
		// Another report dialed first; keep the established socket.
		_ = conn.Close()
		return p.conn, nil
	}
	p.conn = conn
	return conn, nil
}

// dial opens the report socket through the configured hook, defaulting
// to net.Dial with a short timeout for TCP.
func (p *Probe) dial(network, addr string) (net.Conn, error) {
	if p.cfg.Dial != nil {
		return p.cfg.Dial(network, addr)
	}
	if network == "tcp" {
		return net.DialTimeout(network, addr, 2*time.Second)
	}
	return net.Dial(network, addr)
}

func (p *Probe) logf(format string, args ...any) {
	if p.cfg.Logger != nil {
		p.cfg.Logger.Printf(format, args...)
	}
}
