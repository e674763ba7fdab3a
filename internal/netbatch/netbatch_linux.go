//go:build linux && (amd64 || arm64)

// The Linux fast path: recvmmsg(2)/sendmmsg(2) through
// syscall.Syscall6, driven inside syscall.RawConn.Read/Write
// callbacks so the runtime poller still parks the goroutine while
// the socket is idle. The syscalls run with MSG_DONTWAIT; EAGAIN
// hands control back to the poller, everything else surfaces as an
// *os.SyscallError. Scratch arrays (mmsghdrs, iovecs, sockaddr
// buffers) and the two syscall callbacks are built once at Wrap time
// and reused for the life of the Conn; a callback's inputs and
// outputs are sysState fields, not captured locals that would move
// to the heap. A batched write plus read allocates nothing:
// TestBatchedRoundTripAllocatesNothing pins it.

package netbatch

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"os"
	"syscall"
	"unsafe"
)

const rawSupported = true

// soReusePort is SO_REUSEPORT, absent from the frozen syscall
// package (same value on every Linux architecture).
const soReusePort = 0xf

// mmsghdr mirrors struct mmsghdr: one msghdr plus the kernel-filled
// datagram length. The trailing pad keeps the 8-byte stride the
// kernel expects on LP64.
type mmsghdr struct {
	hdr  syscall.Msghdr
	nlen uint32
	_    [4]byte
}

// sysState is the per-Conn scratch for the batched syscalls. recv and
// send are its methods, stored once as method values; each reads its
// input and leaves its result in the fields beside its vector, owned
// like the arrays by the Conn's one goroutine.
type sysState struct {
	rc           syscall.RawConn
	rvec         []mmsghdr
	riov         []syscall.Iovec
	rname        []syscall.RawSockaddrInet6
	recvFn       func(fd uintptr) bool
	rn, rgot     int // recvmmsg over rvec[:rn] received rgot
	rerrno       syscall.Errno
	wvec         []mmsghdr
	wiov         []syscall.Iovec
	wname        []syscall.RawSockaddrInet6
	sendFn       func(fd uintptr) bool
	wk, wn, wgot int // sendmmsg over wvec[wk:wn] sent wgot
	werrno       syscall.Errno
	family       int  // AF_INET or AF_INET6, fixed at bind time
	connected    bool // dialled socket: sends must not name a peer
}

// initRaw arms the batched path: grabs the RawConn, probes the socket
// family and connectedness once, and sizes the scratch arrays.
func (c *Conn) initRaw() error {
	rc, err := c.udp.SyscallConn()
	if err != nil {
		return err
	}
	var family int
	var connected bool
	cerr := rc.Control(func(fd uintptr) {
		sa, err := syscall.Getsockname(int(fd))
		if err == nil {
			if _, ok := sa.(*syscall.SockaddrInet4); ok {
				family = syscall.AF_INET
			} else {
				family = syscall.AF_INET6
			}
		}
		if _, err := syscall.Getpeername(int(fd)); err == nil {
			connected = true
		}
	})
	if cerr != nil {
		return cerr
	}
	if family == 0 {
		family = syscall.AF_INET6
	}
	b := c.batch
	c.sys = sysState{
		rc:        rc,
		rvec:      make([]mmsghdr, b),
		riov:      make([]syscall.Iovec, b),
		rname:     make([]syscall.RawSockaddrInet6, b),
		wvec:      make([]mmsghdr, b),
		wiov:      make([]syscall.Iovec, b),
		wname:     make([]syscall.RawSockaddrInet6, b),
		family:    family,
		connected: connected,
	}
	c.sys.recvFn, c.sys.sendFn = c.sys.recv, c.sys.send
	for i := 0; i < b; i++ { // the headers' fixed pointers
		c.sys.rvec[i].hdr.Name = (*byte)(unsafe.Pointer(&c.sys.rname[i]))
		c.sys.rvec[i].hdr.Iov, c.sys.rvec[i].hdr.Iovlen = &c.sys.riov[i], 1
		c.sys.wvec[i].hdr.Iov, c.sys.wvec[i].hdr.Iovlen = &c.sys.wiov[i], 1
	}
	return nil
}

// recv is the RawConn.Read callback: one recvmmsg over rvec[:rn].
func (s *sysState) recv(fd uintptr) bool {
	r, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
		uintptr(unsafe.Pointer(&s.rvec[0])), uintptr(s.rn),
		syscall.MSG_DONTWAIT, 0, 0)
	if e == syscall.EAGAIN || e == syscall.EINTR {
		return false // park on the poller until readable
	}
	s.rgot, s.rerrno = int(r), e
	return true
}

// send is the RawConn.Write callback: one sendmmsg over wvec[wk:wn].
func (s *sysState) send(fd uintptr) bool {
	r, _, e := syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(&s.wvec[s.wk])), uintptr(s.wn-s.wk),
		syscall.MSG_DONTWAIT, 0, 0)
	if e == syscall.EAGAIN || e == syscall.EINTR {
		return false // wait for the send buffer to drain
	}
	s.wgot, s.werrno = int(r), e
	return true
}

// readBatchRaw receives up to min(len(ms), batch) datagrams with one
// recvmmsg per wakeup.
func (c *Conn) readBatchRaw(ms []Message) (int, error) {
	n := len(ms)
	if n > c.batch {
		n = c.batch
	}
	for i := 0; i < n; i++ {
		ms[i].Buf = ms[i].Buf[:cap(ms[i].Buf)]
		c.sys.riov[i].Base = unsafe.SliceData(ms[i].Buf)
		c.sys.riov[i].SetLen(len(ms[i].Buf))
		c.sys.rvec[i].hdr.Namelen = uint32(unsafe.Sizeof(c.sys.rname[i]))
	}
	c.sys.rn = n
	if err := c.sys.rc.Read(c.sys.recvFn); err != nil {
		return 0, err // poller-level: closed socket or deadline
	}
	if c.sys.rerrno != 0 {
		return 0, os.NewSyscallError("recvmmsg", c.sys.rerrno)
	}
	c.m.rxSys.Inc()
	got := c.sys.rgot
	for i := 0; i < got; i++ {
		ms[i].Buf = ms[i].Buf[:c.sys.rvec[i].nlen]
		ms[i].Addr = decodeSockaddr(&c.sys.rname[i])
	}
	return got, nil
}

// writeBatchRaw sends every message, moving as many per sendmmsg as
// the kernel takes. A per-datagram failure skips that datagram and
// carries on; a poller-level failure (closed, deadline) aborts.
func (c *Conn) writeBatchRaw(ms []Message) (int, error) {
	sent := 0
	var firstErr error
	for off := 0; off < len(ms); {
		n := len(ms) - off
		if n > c.batch {
			n = c.batch
		}
		for i := 0; i < n; i++ {
			m := &ms[off+i]
			c.sys.wiov[i].Base = unsafe.SliceData(m.Buf)
			c.sys.wiov[i].SetLen(len(m.Buf))
			h := &c.sys.wvec[i].hdr
			if c.sys.connected || !m.Addr.IsValid() {
				h.Name = nil
				h.Namelen = 0
			} else {
				h.Namelen = encodeSockaddr(&c.sys.wname[i], c.sys.family, m.Addr)
				h.Name = (*byte)(unsafe.Pointer(&c.sys.wname[i]))
			}
		}
		for c.sys.wk, c.sys.wn = 0, n; c.sys.wk < n; {
			if err := c.sys.rc.Write(c.sys.sendFn); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return sent, firstErr
			}
			if c.sys.werrno != 0 {
				// sendmmsg reports an error only when the *first*
				// pending datagram fails; skip it and keep the rest
				// moving — a transient ENOBUFS must not wedge the loop.
				if firstErr == nil {
					firstErr = os.NewSyscallError("sendmmsg", c.sys.werrno)
				}
				c.sys.wk++
				continue
			}
			c.m.txSys.Inc()
			sent += c.sys.wgot
			c.sys.wk += c.sys.wgot
		}
		off += n
	}
	return sent, firstErr
}

// ntohs converts a network-byte-order port field (amd64 and arm64
// are both little-endian).
func ntohs(p uint16) uint16 { return p<<8 | p>>8 }

// decodeSockaddr turns a kernel-filled raw sockaddr into a
// netip.AddrPort without allocating. Dual-stack mapped v4 peers are
// unmapped so both I/O paths report identical addresses.
func decodeSockaddr(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), ntohs(sa4.Port))
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), ntohs(sa.Port))
	}
	return netip.AddrPort{}
}

// encodeSockaddr fills sa for a send to ap on a socket of the given
// family, returning the sockaddr length. v4 destinations on a
// dual-stack (AF_INET6) socket are written in v4-mapped form, which
// As16 produces directly.
func encodeSockaddr(sa *syscall.RawSockaddrInet6, family int, ap netip.AddrPort) uint32 {
	if family == syscall.AF_INET {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		sa4.Family = syscall.AF_INET
		sa4.Port = ntohs(ap.Port())
		sa4.Addr = ap.Addr().Unmap().As4()
		return uint32(unsafe.Sizeof(*sa4))
	}
	sa.Family = syscall.AF_INET6
	sa.Port = ntohs(ap.Port())
	sa.Addr = ap.Addr().As16()
	sa.Scope_id = 0
	return uint32(unsafe.Sizeof(*sa))
}

// listenShards binds n SO_REUSEPORT sockets to the same port. The
// first bind may pick an ephemeral port; the rest join it.
func listenShards(addr string, n int, _ metrics) ([]*net.UDPConn, error) {
	lc := net.ListenConfig{Control: func(network, address string, rc syscall.RawConn) error {
		var serr error
		if err := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
		}); err != nil {
			return err
		}
		return serr
	}}
	conns := make([]*net.UDPConn, 0, n)
	bind := addr
	for i := 0; i < n; i++ {
		pc, err := lc.ListenPacket(context.Background(), "udp", bind)
		if err != nil {
			closeAll(conns)
			return nil, fmt.Errorf("netbatch: listen shard %d: %w", i, err)
		}
		uc, ok := pc.(*net.UDPConn)
		if !ok {
			closeAll(conns)
			_ = pc.Close()
			return nil, fmt.Errorf("netbatch: shard %d is %T, not *net.UDPConn", i, pc)
		}
		conns = append(conns, uc)
		if i == 0 {
			// Later shards must join the concrete port the first bind
			// got, which matters when addr asked for port 0.
			bind = uc.LocalAddr().String()
		}
	}
	return conns, nil
}
