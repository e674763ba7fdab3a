package smartsock

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"smartsock/internal/retry"
)

// ReliableConn is the Chapter 6 fault-tolerance hook: a connection
// that can be suspended and resumed, in the spirit of the rsocks
// reliable-sockets work the thesis cites. Suspend parks the
// connection (closing the underlying socket); Resume redials the same
// server. Writes made while a connection is broken redial
// transparently, up to a retry budget.
//
// Transparent *stream* recovery — replaying bytes the peer never saw
// — needs cooperation from both ends and is out of scope here, as it
// was for the thesis ("the checkpoint function, and the recovery
// procedure should be accomplished in the upper level"). ReliableConn
// therefore suits request/reply protocols where the application
// re-issues the in-flight request after a reconnect; both sample
// applications (matrix tiles, massd blocks) have that shape.
type ReliableConn struct {
	mu        sync.Mutex
	conn      net.Conn
	addr      string
	dial      func(ctx context.Context, addr string) (net.Conn, error)
	suspended bool
	closed    bool
	redials   int
	// backoff spaces consecutive redials of one Write so a crashed
	// server is not redialed in a tight loop.
	backoff retry.Backoff
	// sleep is time.Sleep, injectable for tests.
	sleep func(time.Duration)
}

// maxRedials bounds the automatic reconnects of one Write: a socket
// that breaks again on the fresh connection fails the Write, and the
// application decides.
const maxRedials = 1

// Reliable wraps the i-th socket of the set with suspend/resume and
// write-side auto-reconnect. The SocketSet keeps no further ownership
// of that slot; close the ReliableConn instead.
func (s *SocketSet) Reliable(i int) (*ReliableConn, error) {
	if i < 0 || i >= len(s.conns) {
		return nil, fmt.Errorf("smartsock: no socket %d in set of %d", i, len(s.conns))
	}
	return &ReliableConn{
		conn: s.conns[i],
		addr: s.addrs[i],
		dial: s.dial,
	}, nil
}

// NewReliableConn wraps an existing connection to addr using the
// standard dialer for reconnects.
func NewReliableConn(conn net.Conn, addr string, dialTimeout time.Duration) *ReliableConn {
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	return &ReliableConn{
		conn: conn,
		addr: addr,
		dial: func(ctx context.Context, a string) (net.Conn, error) {
			d := net.Dialer{Timeout: dialTimeout}
			return d.DialContext(ctx, "tcp", a)
		},
	}
}

// Addr returns the server address this connection belongs to.
func (r *ReliableConn) Addr() string { return r.addr }

// Redials reports how many automatic reconnects have happened.
func (r *ReliableConn) Redials() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.redials
}

// Suspend parks the connection: the socket is closed but the server
// address is kept so Resume can re-establish it — the first half of
// the process-migration hook of Chapter 6.
func (r *ReliableConn) Suspend() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.suspended {
		return nil
	}
	r.suspended = true
	if r.conn != nil {
		err := r.conn.Close()
		r.conn = nil
		return err
	}
	return nil
}

// Resume re-establishes a suspended (or broken) connection.
func (r *ReliableConn) Resume(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reconnectLocked(ctx)
}

func (r *ReliableConn) reconnectLocked(ctx context.Context) error {
	if r.closed {
		return fmt.Errorf("smartsock: connection to %s is closed", r.addr)
	}
	if r.conn != nil {
		// The old socket is being replaced; its close error carries no
		// information the reconnect result doesn't.
		_ = r.conn.Close()
		r.conn = nil
	}
	conn, err := r.dial(ctx, r.addr)
	if err != nil {
		return fmt.Errorf("smartsock: resume %s: %w", r.addr, err)
	}
	r.conn = conn
	r.suspended = false
	r.redials++
	return nil
}

// Suspended reports whether the connection is parked.
func (r *ReliableConn) Suspended() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.suspended
}

// Write sends data, transparently redialing if the socket is broken
// or was never resumed, up to the maxRedials budget with bounded
// exponential backoff between attempts. The caller's protocol must
// tolerate the peer seeing a fresh connection (re-issue the current
// request). The mutex guards only the connection swap, never the
// write or the backoff wait, so a stalled peer cannot wedge
// Suspend/Resume/Close; concurrent writers serialise on the socket as
// they would on a plain net.Conn.
func (r *ReliableConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.backoff.Reset()
	r.mu.Unlock()
	for attempt := 0; ; attempt++ {
		r.mu.Lock()
		if attempt > 0 {
			wait := r.backoff.Next()
			pause := r.sleep
			if pause == nil {
				pause = time.Sleep
			}
			r.mu.Unlock()
			pause(wait)
			r.mu.Lock()
		}
		if r.conn == nil || r.suspended {
			if err := r.reconnectLocked(context.Background()); err != nil {
				r.mu.Unlock()
				return 0, err
			}
		}
		conn := r.conn
		r.mu.Unlock()

		n, err := conn.Write(p)
		if err == nil {
			return n, nil
		}
		if attempt >= maxRedials {
			return n, err
		}
		r.mu.Lock()
		if r.conn == conn {
			// The error already told us the socket is broken.
			_ = conn.Close()
			r.conn = nil
		}
		r.mu.Unlock()
	}
}

// Read reads from the live connection. A read on a suspended
// connection resumes it first; read errors are returned as-is because
// silently reconnecting mid-stream would lose the peer's position.
func (r *ReliableConn) Read(p []byte) (int, error) {
	r.mu.Lock()
	if r.conn == nil || r.suspended {
		if err := r.reconnectLocked(context.Background()); err != nil {
			r.mu.Unlock()
			return 0, err
		}
	}
	conn := r.conn
	r.mu.Unlock()
	//lint:ignore deadline transparent wrapper: deadlines are the caller's, set through SetDeadline
	return conn.Read(p)
}

// Close shuts the connection down for good; no operation reconnects
// after it.
func (r *ReliableConn) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.suspended = true
	r.closed = true
	if r.conn == nil {
		return nil
	}
	err := r.conn.Close()
	r.conn = nil
	return err
}

// SetDeadline forwards to the live connection, if any.
func (r *ReliableConn) SetDeadline(t time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn == nil {
		return fmt.Errorf("smartsock: connection suspended")
	}
	return r.conn.SetDeadline(t)
}
