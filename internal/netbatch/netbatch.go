// Package netbatch is the batched UDP datagram plane under the
// wizard's request loop and the monitor's probe-report ingest. Both
// hot loops used to cost one recvfrom plus one sendto per datagram;
// at storm rates the request plane is syscall-bound, so netbatch
// moves up to Batch datagrams per syscall instead:
//
//   - On Linux (amd64/arm64), ReadBatch and WriteBatch issue
//     recvmmsg(2)/sendmmsg(2) through syscall.Syscall6, integrated
//     with the runtime poller via syscall.RawConn so a blocked read
//     parks the goroutine instead of spinning. Source addresses are
//     decoded from the raw sockaddrs into netip.AddrPort values, so
//     a received datagram costs no *net.UDPAddr allocation.
//   - Everywhere else, and whenever Batch <= 1, a portable fallback
//     serves the identical interface with single ReadMsgUDPAddrPort /
//     WriteToUDPAddrPort calls, so behaviour is byte-identical off
//     Linux — batches just degrade to one datagram per syscall.
//
// ListenShards adds the second axis: it binds N sockets to the same
// UDP port via SO_REUSEPORT, so each serve goroutine owns a private
// socket and the kernel load-balances flows across them — converting
// shared-socket contention into per-shard independence. Off Linux it
// degrades to a single socket (counted by netbatch_fallback).
//
// Batching is transparent to peers: the same datagrams move, in the
// same order per flow, whatever the batch size or shard count.
package netbatch

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"

	"smartsock/internal/obs"
)

// MaxBatch caps the datagrams moved per syscall; recvmmsg gains
// little past this point and the per-conn scratch arrays stay small.
const MaxBatch = 64

// DefaultBatch is the batch wizardd and sysmond serve their UDP ports
// with, -compat included: batching is invisible to a peer.
const DefaultBatch = 32

// Message is one datagram in a batch. For reads, Buf's capacity is
// the receive buffer and ReadBatch reslices it to the datagram
// length; for writes, Buf is the payload and Addr the destination
// (an invalid Addr means "use the connected peer").
type Message struct {
	Buf  []byte
	Addr netip.AddrPort
}

// NewBatch allocates n messages, each with a bufSize-byte buffer —
// the reusable receive or reply vector a serve loop owns.
func NewBatch(n, bufSize int) []Message {
	ms := make([]Message, n)
	for i := range ms {
		ms[i].Buf = make([]byte, bufSize)
	}
	return ms
}

// Handoff transfers ownership of m's receive buffer to the caller
// and installs fresh (at full capacity) in its place, so the ring
// slot is ready for the next ReadBatch while the received datagram
// outlives it — the zero-copy bridge between a receive ring and an
// ingress queue (internal/overload). The returned message keeps the
// datagram-length reslice and source address the read produced.
func Handoff(m *Message, fresh []byte) Message {
	out := *m
	m.Buf = fresh[:cap(fresh)]
	m.Addr = netip.AddrPort{}
	return out
}

// Endpoint is the batched datagram interface the serve loops program
// against. *Conn implements it; tests substitute fault-injecting
// wrappers.
type Endpoint interface {
	// ReadBatch fills up to len(ms) messages with received datagrams
	// and returns how many arrived. It blocks until at least one
	// datagram is available, then drains whatever else is already
	// queued without blocking again.
	ReadBatch(ms []Message) (int, error)
	// WriteBatch sends every message and returns how many the kernel
	// accepted. A per-datagram send failure is skipped, not fatal: the
	// remaining messages are still attempted and the first error is
	// returned alongside the count, so a transient ENOBUFS cannot
	// wedge a serve loop.
	WriteBatch(ms []Message) (int, error)
	Close() error
	LocalAddr() net.Addr
}

// Options parameterise Wrap.
type Options struct {
	// Batch is the most datagrams one syscall may move. 0 and 1 both
	// select single-datagram mode (the portable path); values above
	// MaxBatch are clamped.
	Batch int
	// Obs receives the plane's syscall counters (netbatch_rx_syscalls,
	// netbatch_tx_syscalls, netbatch_fallback); nil detaches them.
	Obs *obs.Registry
}

// metrics are the plane's shared counters; every Conn bound to the
// same registry shares one set.
type metrics struct {
	rxSys    *obs.Counter // netbatch_rx_syscalls: receive syscalls issued
	txSys    *obs.Counter // netbatch_tx_syscalls: send syscalls issued
	fallback *obs.Counter // netbatch_fallback: batch>1 requests served by the portable path
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		rxSys:    reg.Counter("netbatch_rx_syscalls"),
		txSys:    reg.Counter("netbatch_tx_syscalls"),
		fallback: reg.Counter("netbatch_fallback"),
	}
}

// Conn is a batched datagram endpoint over one *net.UDPConn. A Conn
// is owned by a single goroutine at a time (each serve loop wraps its
// socket privately); several Conns may wrap the same socket, in which
// case the kernel serialises the syscalls.
type Conn struct {
	udp   *net.UDPConn
	batch int
	raw   bool // batched-syscall path armed (Linux only)
	m     metrics
	sys   sysState // platform scratch; empty struct off Linux
}

// Wrap builds a batched endpoint over an already-bound UDP socket.
func Wrap(c *net.UDPConn, o Options) (*Conn, error) {
	b := o.Batch
	if b <= 0 {
		b = 1
	}
	if b > MaxBatch {
		b = MaxBatch
	}
	cn := &Conn{udp: c, batch: b, m: newMetrics(o.Obs)}
	if b > 1 {
		if rawSupported {
			if err := cn.initRaw(); err != nil {
				return nil, fmt.Errorf("netbatch: arm batched syscalls: %w", err)
			}
			cn.raw = true
		} else {
			// Batching was asked for but only the single-datagram
			// fallback is available here; make that visible.
			cn.m.fallback.Inc()
		}
	}
	return cn, nil
}

// Batch reports the endpoint's maximum datagrams per syscall.
func (c *Conn) Batch() int { return c.batch }

// Batched reports whether the recvmmsg/sendmmsg path is armed.
func (c *Conn) Batched() bool { return c.raw }

// Close closes the underlying socket.
func (c *Conn) Close() error { return c.udp.Close() }

// LocalAddr reports the underlying socket's bound address.
func (c *Conn) LocalAddr() net.Addr { return c.udp.LocalAddr() }

// ReadBatch implements Endpoint.
func (c *Conn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	if c.raw {
		return c.readBatchRaw(ms)
	}
	return c.readBatchGeneric(ms)
}

// WriteBatch implements Endpoint.
func (c *Conn) WriteBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	if c.raw {
		return c.writeBatchRaw(ms)
	}
	return c.writeBatchGeneric(ms)
}

// readBatchGeneric is the portable single-datagram read: exactly one
// blocking receive per call, so a "batch" arrives one message at a
// time with behaviour identical to the historical serve loops.
func (c *Conn) readBatchGeneric(ms []Message) (int, error) {
	buf := ms[0].Buf[:cap(ms[0].Buf)]
	n, _, _, from, err := c.udp.ReadMsgUDPAddrPort(buf, nil)
	if err != nil {
		return 0, err
	}
	c.m.rxSys.Inc()
	ms[0].Buf = buf[:n]
	// Normalise dual-stack mapped peers (::ffff:a.b.c.d) to their v4
	// form so both paths report identical addresses.
	ms[0].Addr = netip.AddrPortFrom(from.Addr().Unmap(), from.Port())
	return 1, nil
}

// writeBatchGeneric is the portable send loop: one sendto per
// message, failed datagrams skipped, first error reported.
func (c *Conn) writeBatchGeneric(ms []Message) (int, error) {
	sent := 0
	var firstErr error
	for i := range ms {
		var err error
		if ms[i].Addr.IsValid() {
			_, err = c.udp.WriteToUDPAddrPort(ms[i].Buf, ms[i].Addr)
		} else {
			// Connected-socket mode: the peer is fixed at dial time.
			_, err = c.udp.Write(ms[i].Buf)
		}
		c.m.txSys.Inc()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded) {
				// The socket is gone for every remaining message too.
				return sent, firstErr
			}
			continue
		}
		sent++
	}
	return sent, firstErr
}

// ListenShards binds n UDP sockets to the same address. With n > 1 it
// sets SO_REUSEPORT on every socket so the kernel spreads inbound
// flows across them — each wizard worker then owns a private socket
// instead of contending on one shared fd. The first socket may bind
// port 0; the rest join whatever port it got.
//
// The returned slice may be shorter than n where SO_REUSEPORT is
// unavailable (everywhere but Linux): callers must size their serve
// loops by len(result), and netbatch_fallback counts the degradation.
func ListenShards(addr string, n int, reg *obs.Registry) ([]*net.UDPConn, error) {
	m := newMetrics(reg)
	if n <= 1 {
		c, err := listenOne(addr)
		if err != nil {
			return nil, err
		}
		return []*net.UDPConn{c}, nil
	}
	return listenShards(addr, n, m)
}

// listenOne is the plain single-socket bind both paths share.
func listenOne(addr string) (*net.UDPConn, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netbatch: resolve %q: %w", addr, err)
	}
	c, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("netbatch: listen: %w", err)
	}
	return c, nil
}

// closeAll releases a partially built shard set.
func closeAll(conns []*net.UDPConn) {
	for _, c := range conns {
		_ = c.Close()
	}
}
