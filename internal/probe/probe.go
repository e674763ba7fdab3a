// Package probe implements the server probe of §3.2.1: a small agent
// running on every server that periodically scans the system status
// source and reports it to the system monitor.
//
// Reports travel over UDP by default — the monitor sits in the local
// network, losses are rare and the overhead matters more than
// reliability (§3.2.1). The Chapter 6 extension is also implemented:
// a probe can be switched to TCP for long reports on congested
// networks, and it honours a "selected parameters" mask so only the
// fields an application cares about are measured and shipped.
package probe

import (
	"context"
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// FieldMask names the parameter groups a probe reports. The zero mask
// means "everything" (the thesis default); the wizard can narrow it
// to cut measurement and bandwidth cost (Ch. 6).
type FieldMask uint8

const (
	FieldLoad FieldMask = 1 << iota
	FieldCPU
	FieldMemory
	FieldDisk
	FieldNetwork

	// FieldAll reports every parameter group.
	FieldAll = FieldLoad | FieldCPU | FieldMemory | FieldDisk | FieldNetwork
)

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
	cfg     Config
	mask    atomic.Uint32 // FieldMask; mutable at runtime
	reports atomic.Uint64 // reports successfully sent

	connMu sync.Mutex
	conn   net.Conn // persistent UDP socket; control replies arrive here
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
	p := &Probe{cfg: cfg}
	p.mask.Store(uint32(FieldAll))
	return p, nil
}

// SetFields narrows (or widens) the reported parameter groups.
func (p *Probe) SetFields(m FieldMask) {
	if m == 0 {
		m = FieldAll
	}
	p.mask.Store(uint32(m))
}

// Reports returns the number of reports sent so far.
func (p *Probe) Reports() uint64 { return p.reports.Load() }

// Close releases the probe's report socket and stops its control
// listener. Run closes automatically; call Close only when driving
// ReportOnce by hand.
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
	timer := time.NewTimer(p.cfg.Interval)
	defer timer.Stop()
	for {
		wait := p.cfg.Interval
		if err := p.ReportOnce(); err != nil {
			p.logf("probe: %v", err)
			wait = bo.Next()
		} else {
			bo.Reset()
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
	}
}

var reportBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// ReportOnce performs a single scan-and-send cycle.
func (p *Probe) ReportOnce() error {
	snap, err := p.cfg.Source.Snapshot()
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	applyMask(&snap, FieldMask(p.mask.Load()))
	// ReportOnce may run beside Run, so the buffer comes from a pool
	// rather than the probe; neither transport keeps msg past send.
	buf := reportBufs.Get().(*[]byte)
	defer reportBufs.Put(buf)
	*buf = status.AppendReport((*buf)[:0], &snap)
	if err := p.send(*buf); err != nil {
		return err
	}
	p.reports.Add(1)
	return nil
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

// udpConn lazily opens the probe's persistent report socket and
// starts the control listener on it. Keeping one socket per probe
// lets the monitor's selected-parameters replies (Ch. 6) arrive
// asynchronously, without delaying reports. The dial happens outside
// the mutex — a slow resolver must not block Close — with a re-check
// after reacquiring it; a racing dial loses and closes its socket.
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
	// controlLoop's lifetime is the socket's: Probe.Close closes p.conn,
	// which ends the read loop.
	go p.controlLoop(conn)
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

// controlLoop applies selected-parameters instructions as they
// arrive; it exits when the socket is replaced or closed.
func (p *Probe) controlLoop(conn net.Conn) {
	buf := make([]byte, 256)
	for {
		// Control replies may arrive at any time over the socket's whole
		// life; Probe.Close ends the loop by closing the socket.
		//lint:ignore deadline socket lifetime is owned by Probe.Close, a read deadline would drop control replies
		n, err := conn.Read(buf)
		if err != nil {
			return
		}
		mask, err := status.DecodeControl(buf[:n])
		if err != nil {
			p.logf("probe: ignoring stray datagram on report socket: %v", err)
			continue
		}
		p.SetFields(FieldMask(mask))
	}
}

// MaskForVariables derives the narrowest field mask that still
// measures every named server-side variable — the bridge from the
// wizard's requirement-variable statistics to probe instructions.
// Unknown variables (including the wizard-side monitor_* and
// host_security_level names) select no probe group; an empty result
// set falls back to FieldAll at SetFields time.
func MaskForVariables(vars []string) FieldMask {
	var m FieldMask
	for _, v := range vars {
		switch {
		case strings.HasPrefix(v, "host_system_load"):
			m |= FieldLoad
		case strings.HasPrefix(v, "host_cpu"):
			m |= FieldCPU
		case strings.HasPrefix(v, "host_memory"):
			m |= FieldMemory
		case strings.HasPrefix(v, "host_disk"):
			m |= FieldDisk
		case strings.HasPrefix(v, "host_network"):
			m |= FieldNetwork
		}
	}
	return m
}

// applyMask zeroes the parameter groups outside the mask so unreported
// values cannot be mistaken for measurements.
func applyMask(s *status.ServerStatus, m FieldMask) {
	if m&FieldLoad == 0 {
		s.Load1, s.Load5, s.Load15 = 0, 0, 0
	}
	if m&FieldCPU == 0 {
		s.CPUUser, s.CPUNice, s.CPUSystem, s.CPUIdle = 0, 0, 0, 0
	}
	if m&FieldMemory == 0 {
		s.MemTotal, s.MemUsed, s.MemFree = 0, 0, 0
	}
	if m&FieldDisk == 0 {
		s.DiskAllReq, s.DiskRReq, s.DiskRBlocks, s.DiskWReq, s.DiskWBlocks = 0, 0, 0, 0, 0
	}
	if m&FieldNetwork == 0 {
		s.NetIface = ""
		s.NetRBytesPS, s.NetRPacketsPS, s.NetTBytesPS, s.NetTPacketsPS = 0, 0, 0, 0
	}
}

func (p *Probe) logf(format string, args ...any) {
	if p.cfg.Logger != nil {
		p.cfg.Logger.Printf(format, args...)
	}
}
