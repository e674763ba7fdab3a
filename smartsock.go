// Package smartsock is the client library of the Smart TCP socket
// system (§3.6.2): the public API applications use to turn a server
// requirement — written in the meta language of §4.3 — into a set of
// connected TCP sockets, selected by the wizard according to live
// server status.
//
// A minimal use looks like:
//
//	c, err := smartsock.NewClient("wizard.lab:1120", nil)
//	...
//	set, err := c.Connect(ctx, `
//	    host_cpu_free >= 0.9
//	    host_memory_free > 100
//	`, 3)
//	...
//	defer set.Close()
//	for _, conn := range set.Conns() { ... }
//
// The library sends the requirement to the wizard over UDP with a
// random sequence number, matches the reply against it, retries lost
// datagrams, and dials the returned servers. A Client keeps its wizard
// socket between exchanges and closes it after a second without one,
// so a Client needs no Close. Requirements may also be
// loaded from files with LoadRequirement, and validated locally with
// CheckRequirement before any network traffic happens.
package smartsock

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"smartsock/internal/proto"
	"smartsock/internal/reqlang"
	"smartsock/internal/retry"
)

// Option bits modify wizard behaviour.
type Option = proto.Option

// Option values. See the proto package for semantics.
const (
	// OptPartialOK accepts fewer servers than requested when the pool
	// cannot satisfy the full count.
	OptPartialOK = proto.OptPartialOK
	// OptRankByExpr ranks qualified servers by the requirement's last
	// non-logical expression, highest first (the Chapter 6 "3 servers
	// with largest memory" extension).
	OptRankByExpr = proto.OptRankByExpr
	// OptTemplate treats the requirement text as the name of a
	// template predefined on the wizard.
	OptTemplate = proto.OptTemplate
)

// MaxServers is the most servers one request can return (§3.6.1).
const MaxServers = proto.MaxServers

// ClientConfig tunes a Client. The zero value is usable.
type ClientConfig struct {
	// Timeout bounds one request/reply exchange. Default 2 s.
	Timeout time.Duration
	// Retries resends a request whose reply was lost. Default 2.
	Retries int
	// DialTimeout bounds each server connection attempt. Default 5 s.
	DialTimeout time.Duration
	// Dial opens the client's sockets — the wizard's UDP socket and
	// each server's TCP connection. Nil means the net package dialers.
	// The wizard socket is kept between exchanges, so a sequential
	// Client dials "udp" once per idle period, not once per request.
	// Chaos tests inject lossy wrappers here.
	Dial func(network, addr string) (net.Conn, error)
}

// idleRelease is how long a kept wizard socket outlives its last
// exchange before the Client closes it.
const idleRelease = time.Second

// Client talks to one wizard. It is safe for concurrent use.
type Client struct {
	wizard string
	cfg    ClientConfig

	slot chan net.Conn // holds the wizard socket between exchanges; capacity 1
	idle *time.Timer   // runs release idleRelease after the last keep
}

// NewClient creates a client for the wizard at addr (host:port). A
// nil config selects defaults.
func NewClient(addr string, cfg *ClientConfig) (*Client, error) {
	if addr == "" {
		return nil, fmt.Errorf("smartsock: empty wizard address")
	}
	c := &Client{wizard: addr, slot: make(chan net.Conn, 1)}
	c.idle = time.AfterFunc(idleRelease, c.release)
	c.idle.Stop() // keep arms it
	if cfg != nil {
		c.cfg = *cfg
	}
	if c.cfg.Timeout <= 0 {
		c.cfg.Timeout = 2 * time.Second
	}
	if c.cfg.Retries < 0 {
		c.cfg.Retries = 0
	} else if c.cfg.Retries == 0 {
		c.cfg.Retries = 2
	}
	if c.cfg.DialTimeout <= 0 {
		c.cfg.DialTimeout = 5 * time.Second
	}
	return c, nil
}

// CheckRequirement parses a requirement without contacting the
// wizard, returning syntax errors with line positions. Use it to
// validate user-edited requirement files early.
func CheckRequirement(text string) error {
	_, err := reqlang.Parse(text)
	return err
}

// LoadRequirement reads a requirement file (the format of §3.6.2)
// and validates its syntax.
func LoadRequirement(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("smartsock: %w", err)
	}
	text := string(data)
	if err := CheckRequirement(text); err != nil {
		return "", err
	}
	return text, nil
}

// RequestServers asks the wizard for n servers matching the
// requirement and returns their addresses, best first. It does not
// connect to them; see Connect.
func (c *Client) RequestServers(ctx context.Context, requirement string, n int, opts ...Option) ([]string, error) {
	if n <= 0 {
		return nil, fmt.Errorf("smartsock: requested %d servers", n)
	}
	if n > MaxServers {
		return nil, fmt.Errorf("smartsock: %d exceeds the per-request limit of %d servers", n, MaxServers)
	}
	var opt Option
	for _, o := range opts {
		opt |= o
	}
	req := proto.Request{
		Seq:       randomSeq(),
		ServerNum: uint16(n),
		Option:    opt,
		Detail:    requirement,
	}
	var reply proto.Reply
	if err := c.exchange(ctx, &req, &reply); err != nil {
		return nil, err
	}
	if reply.Err != "" {
		return nil, fmt.Errorf("smartsock: wizard: %s", reply.Err)
	}
	return reply.Servers, nil
}

// exchangeBuf holds one exchange's datagrams: the request bytes and a
// 64 KB reply buffer, so any legal datagram fits.
type exchangeBuf struct{ req, reply []byte }

// exchangeBufs recycles the buffers of roundTrip; ParseReply copies
// what it keeps, so a successful exchange allocates only the answer.
var exchangeBufs = sync.Pool{New: func() any { return &exchangeBuf{reply: make([]byte, 64*1024)} }}

// exchange performs the UDP request/reply (§3.6.2 steps 2–3) on the
// kept wizard socket, decoding the answer into reply. A successful
// exchange puts the socket back; every other ending closes it, so an
// error — an ICMP refusal included — never reaches the next exchange.
func (c *Client) exchange(ctx context.Context, req *proto.Request, reply *proto.Reply) error {
	conn, err := c.take()
	if err != nil {
		return fmt.Errorf("smartsock: dial wizard: %w", err)
	}
	if err := c.roundTrip(ctx, conn, req, reply); err != nil {
		// The socket is discarded; the exchange's error is the one to report.
		_ = conn.Close()
		return err
	}
	c.keep(conn)
	return nil
}

// take empties the slot, or dials a new wizard socket when it is empty.
func (c *Client) take() (net.Conn, error) {
	select {
	case conn := <-c.slot:
		return conn, nil
	default:
		return c.dial("udp", c.wizard)
	}
}

// keep puts conn in the slot and re-arms the idle release. A slot a
// concurrent exchange has already refilled closes conn instead.
func (c *Client) keep(conn net.Conn) {
	select {
	case c.slot <- conn:
		c.idle.Reset(idleRelease)
	default:
		// One socket is kept; this one is surplus.
		_ = conn.Close()
	}
}

// release empties the slot and closes the socket it held.
func (c *Client) release() {
	select {
	case conn := <-c.slot:
		// Idle: nobody is waiting on this socket.
		_ = conn.Close()
	default:
	}
}

// roundTrip sends req on conn and waits for the reply with its sequence
// number, skipping any other datagram (a late duplicate on the kept
// socket included). Resends back off with jitter so a fleet of clients
// retrying a lost wizard does not resynchronise into request storms;
// the backoff is built at the first resend.
func (c *Client) roundTrip(ctx context.Context, conn net.Conn, req *proto.Request, reply *proto.Reply) error {
	eb := exchangeBufs.Get().(*exchangeBuf)
	defer exchangeBufs.Put(eb)
	eb.req = proto.AppendRequest(eb.req[:0], req)
	var bo *retry.Backoff
	var lastErr error
	var floor time.Duration // retry-after hint from an overloaded reply
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			if bo == nil {
				bo = &retry.Backoff{Base: 50 * time.Millisecond, Max: c.cfg.Timeout}
			}
			timer := time.NewTimer(bo.NextAtLeast(floor))
			floor = 0
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := conn.Write(eb.req); err != nil {
			return fmt.Errorf("smartsock: send request: %w", err)
		}
		deadline := time.Now().Add(c.cfg.Timeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		for {
			if err := conn.SetReadDeadline(deadline); err != nil {
				return fmt.Errorf("smartsock: arm reply deadline: %w", err)
			}
			n, err := conn.Read(eb.reply)
			if err != nil {
				lastErr = fmt.Errorf("smartsock: wizard did not answer: %w", err)
				break // resend
			}
			if err := proto.ParseReply(eb.reply[:n], reply); err != nil {
				lastErr = err
				continue // garbage datagram; keep listening
			}
			if reply.Seq != req.Seq {
				continue // reply to a different request (§3.6.2 step 3)
			}
			if after, ok := proto.RetryAfter(reply.Err); ok && attempt < c.cfg.Retries {
				// The wizard shed this request; wait at least the hinted
				// interval before the resend so the whole retrying fleet
				// backs off past the overload episode.
				lastErr = fmt.Errorf("smartsock: wizard: %s", reply.Err)
				floor = after
				break // resend
			}
			return nil
		}
	}
	return lastErr
}

// SocketSet is the bundle of connected sockets Connect returns — the
// "list of sockets that will participate in a single computation
// task" of Fig 1.2.
type SocketSet struct {
	conns []net.Conn
	addrs []string
	dial  func(ctx context.Context, addr string) (net.Conn, error)
}

// Conns returns the live connections, in selection order.
func (s *SocketSet) Conns() []net.Conn { return s.conns }

// Addrs returns the server addresses, parallel to Conns.
func (s *SocketSet) Addrs() []string { return s.addrs }

// Len reports the number of sockets in the set.
func (s *SocketSet) Len() int { return len(s.conns) }

// Close closes every socket in the set, returning the first error.
func (s *SocketSet) Close() error {
	var first error
	for _, c := range s.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Redial replaces the i-th socket with a fresh connection to the same
// server — the rsocks-style suspend/resume hook of Chapter 6. The old
// socket is closed; the caller re-issues whatever work was in flight.
func (s *SocketSet) Redial(ctx context.Context, i int) error {
	if i < 0 || i >= len(s.conns) {
		return fmt.Errorf("smartsock: no socket %d in set of %d", i, len(s.conns))
	}
	// The old socket is being replaced; only the redial result matters.
	_ = s.conns[i].Close()
	conn, err := s.dial(ctx, s.addrs[i])
	if err != nil {
		return fmt.Errorf("smartsock: redial %s: %w", s.addrs[i], err)
	}
	s.conns[i] = conn
	return nil
}

// Connect asks the wizard for n servers and returns a SocketSet with
// a TCP connection to each (§3.6.2 step 4). Servers that fail to
// accept are skipped; unless OptPartialOK is set, any shortfall after
// dialing is an error and already-opened sockets are closed.
func (c *Client) Connect(ctx context.Context, requirement string, n int, opts ...Option) (*SocketSet, error) {
	var opt Option
	for _, o := range opts {
		opt |= o
	}
	// Over-ask slightly so a dial failure can be absorbed when the
	// pool has spares.
	ask := n + 2
	if ask > MaxServers {
		ask = MaxServers
	}
	if ask < n {
		ask = n
	}
	addrs, err := c.RequestServers(ctx, requirement, ask, opt|OptPartialOK)
	if err != nil {
		return nil, err
	}
	set := &SocketSet{dial: c.dialServer}
	var failed []string
	dialRound := func(addrs []string) {
		for _, addr := range addrs {
			if set.Len() == n {
				return
			}
			if slices.Contains(set.addrs, addr) || slices.Contains(failed, addr) {
				continue
			}
			conn, err := c.dialServer(ctx, addr)
			if err != nil {
				failed = append(failed, addr)
				continue // try the next candidate
			}
			set.conns = append(set.conns, conn)
			set.addrs = append(set.addrs, addr)
		}
	}
	dialRound(addrs)
	if set.Len() < n && len(failed) > 0 && ctx.Err() == nil {
		// Second selection round (§3.6.2's recovery path): tell the
		// wizard which servers refused connections via the user-side
		// denied-host list and ask again. The wizard's view lags real
		// liveness by up to a status epoch; this closes the gap.
		if addrs2, err := c.RequestServers(ctx, denyHosts(requirement, failed), ask, opt|OptPartialOK); err == nil {
			dialRound(addrs2)
		}
	}
	if set.Len() < n && opt&OptPartialOK == 0 {
		set.Close()
		return nil, fmt.Errorf("smartsock: connected to %d of %d requested servers", set.Len(), n)
	}
	if set.Len() == 0 {
		return nil, fmt.Errorf("smartsock: no server could be contacted")
	}
	return set, nil
}

// denyHosts appends user_denied_host lines for the failed servers, in
// the slots the requirement leaves free: a slot it assigns holds the
// user's own entry. Past the five of Appendix B.2 the slots go on
// (user_denied_host6, …), which the language accepts.
func denyHosts(requirement string, failed []string) string {
	var taken []string
	if prog, err := reqlang.Parse(requirement); err == nil {
		taken = prog.UserParams()
	}
	out := requirement
	for slot := 1; len(failed) > 0; slot++ {
		if name := fmt.Sprintf("user_denied_host%d", slot); !slices.Contains(taken, name) {
			out += fmt.Sprintf("\n%s = %q", name, failed[0])
			failed = failed[1:]
		}
	}
	return out
}

func (c *Client) dialServer(ctx context.Context, addr string) (net.Conn, error) {
	if c.cfg.Dial != nil {
		return c.cfg.Dial("tcp", addr)
	}
	d := net.Dialer{Timeout: c.cfg.DialTimeout}
	return d.DialContext(ctx, "tcp", addr)
}

// dial opens the wizard socket through the configured hook.
func (c *Client) dial(network, addr string) (net.Conn, error) {
	if c.cfg.Dial != nil {
		return c.cfg.Dial(network, addr)
	}
	return net.Dial(network, addr)
}

// randomSeq draws the request sequence number from crypto/rand so
// concurrent clients on one machine cannot collide (§3.6.1).
func randomSeq() uint32 {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to time-based; collisions remain unlikely.
		return uint32(time.Now().UnixNano())
	}
	return binary.BigEndian.Uint32(b[:])
}

// ServerVariables lists the server-side requirement variables this
// deployment understands, for documentation and tooling.
func ServerVariables() []string {
	return []string{
		"host_system_load1", "host_system_load5", "host_system_load15",
		"host_cpu_user", "host_cpu_nice", "host_cpu_system", "host_cpu_idle",
		"host_cpu_free", "host_cpu_bogomips",
		"host_memory_total", "host_memory_used", "host_memory_free",
		"host_memory_total_bytes", "host_memory_used_bytes", "host_memory_free_bytes",
		"host_disk_allreq", "host_disk_rreq", "host_disk_rblocks",
		"host_disk_wreq", "host_disk_wblocks",
		"host_network_rbytesps", "host_network_rpacketsps",
		"host_network_tbytesps", "host_network_tpacketsps",
		"monitor_network_delay", "monitor_network_bw",
		"host_security_level",
	}
}

// UserVariables lists the user-side variables (Appendix B.2).
func UserVariables() []string {
	out := make([]string, 0, 10)
	for i := 1; i <= 5; i++ {
		out = append(out, fmt.Sprintf("user_denied_host%d", i))
	}
	for i := 1; i <= 5; i++ {
		out = append(out, fmt.Sprintf("user_preferred_host%d", i))
	}
	return out
}

// Functions lists the built-in math functions (Appendix B.4), sorted.
func Functions() []string { return reqlang.Builtins() }
