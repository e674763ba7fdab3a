package bwest

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"smartsock/internal/loop"
)

// The thesis probes with plain UDP datagrams and times the ICMP
// port-unreachable errors they trigger, so no software runs on the
// target. Raw ICMP sockets need privileges this library should not
// demand, so the live prober uses a minimal UDP echo service instead:
// the probe carries a 16-byte header (sequence number + nonce) and
// the echoer returns just that header, mimicking the small ICMP
// reply. The timing semantics — large packet out, tiny packet back —
// are identical.

const echoHeaderLen = 16

// EchoServer is the far-end reflector for live RTT probing.
type EchoServer struct {
	conn *net.UDPConn
}

// NewEchoServer binds a UDP echo server; addr may use port 0.
func NewEchoServer(addr string) (*EchoServer, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("bwest: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("bwest: listen: %w", err)
	}
	return &EchoServer{conn: conn}, nil
}

// Addr reports the bound address.
func (e *EchoServer) Addr() string { return e.conn.LocalAddr().String() }

// Run echoes probe headers until the context is cancelled or a read
// fails, and returns with its socket closed however it ends.
func (e *EchoServer) Run(ctx context.Context) error {
	g, _ := loop.NewGroup(ctx)
	g.Close(e.conn) // the read loop below surfaces this close as net.ErrClosed
	g.Go("bwest: echo", e.echo)
	return g.Wait()
}

// echo reflects every probe's header to its sender until a read fails.
func (e *EchoServer) echo(context.Context) error {
	buf := make([]byte, 64*1024)
	for {
		n, from, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			return err
		}
		if n < echoHeaderLen {
			continue
		}
		// Reply with the header only: a small datagram back, like the
		// ICMP error message. A lost reply is a lost probe.
		_, _ = e.conn.WriteToUDP(buf[:echoHeaderLen], from)
	}
}

// UDPProber measures live round-trip times against an EchoServer. It
// implements Prober.
type UDPProber struct {
	conn    *net.UDPConn
	seq     uint64
	timeout time.Duration
	buf     []byte
}

// NewUDPProber dials the echo server. timeout bounds each probe; 0
// means one second.
func NewUDPProber(target string, timeout time.Duration) (*UDPProber, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, fmt.Errorf("bwest: resolve %q: %w", target, err)
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, fmt.Errorf("bwest: dial: %w", err)
	}
	if timeout <= 0 {
		timeout = time.Second
	}
	return &UDPProber{conn: conn, timeout: timeout, buf: make([]byte, 64*1024)}, nil
}

// Close releases the prober's socket.
func (u *UDPProber) Close() error { return u.conn.Close() }

// ProbeRTT sends one probe of the given payload size and returns the
// echo round-trip time. Lost probes (timeouts) return a very large
// duration, which the min-filter in the estimator discards naturally.
func (u *UDPProber) ProbeRTT(payload int) time.Duration {
	if payload < echoHeaderLen {
		payload = echoHeaderLen
	}
	u.seq++
	msg := make([]byte, payload)
	binary.BigEndian.PutUint64(msg, u.seq)
	binary.BigEndian.PutUint64(msg[8:], uint64(time.Now().UnixNano()))

	start := time.Now()
	if _, err := u.conn.Write(msg); err != nil {
		return time.Duration(1<<62 - 1)
	}
	deadline := start.Add(u.timeout)
	for {
		if err := u.conn.SetReadDeadline(deadline); err != nil {
			return time.Duration(1<<62 - 1) // dead socket: treated as loss
		}
		n, err := u.conn.Read(u.buf)
		if err != nil {
			return time.Duration(1<<62 - 1) // timeout: treated as loss
		}
		if n >= 8 && binary.BigEndian.Uint64(u.buf) == u.seq {
			return time.Since(start)
		}
		// Stale echo from an earlier timed-out probe: keep waiting.
	}
}
