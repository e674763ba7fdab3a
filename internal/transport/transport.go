// Package transport implements the transmitter and receiver of §3.5,
// the components that move the three status databases from monitor
// machines to the wizard machine over TCP using [type, size, data]
// frames.
//
// Two operating modes exist (§3.5.1):
//
//   - Centralized: the transmitter actively pushes snapshots to the
//     receiver at a fixed interval, so the wizard always has fresh
//     data and answers requests instantly. Suits small deployments.
//
//   - Distributed: the transmitter listens passively and sends a
//     snapshot only when asked (a TypeRequest frame), so sparse
//     deployments with rare requests pay no standing network load.
//     The receiver keeps the connection it asked on, and the buffers
//     the reply filled, for the next pull (pullSession).
//
// On top of both modes sits a delta protocol. The thesis re-ships the
// full database every epoch (§4.4); here a stream starts with a full
// snapshot closed by a TypeSnapMark frame carrying the database
// version, and subsequent epochs carry only TypeSysDelta /
// TypeNetDelta / TypeSecDelta frames — records that changed since the
// receiver's version, tombstones for expired ones, and keys whose
// content was re-reported unchanged. An epoch in which nothing moved
// sends nothing at all. The receiver validates continuity by version
// and drops the connection on any gap, which makes the transmitter's
// reconnect path (a fresh full snapshot) the resync mechanism; a
// periodic full snapshot bounds how long a silent divergence could
// last.
//
// Compat, set on both ends, is the thesis wire exactly — three batch
// frames per epoch or per reply, nothing else — on the same code: the
// transmitter always ships the full snapshot and leaves out the mark;
// the receiver's pull loop asks without a base, takes a reply as
// complete at one batch frame of each table, and loads the union of
// the replies whole. Either way the receiver decodes through one
// function (stage); push stream and pull path differ only in when
// they admit and apply what it decoded.
//
// Counters live in the obs registry the constructors take (nil
// detaches them) under the transport_* names of OBS_SCHEMA.
//
// The thesis ships raw structs and requires identical endianness on
// both machines; the status package's explicit binary codec removes
// that restriction without changing the framing.
package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"syscall"
	"time"

	"smartsock/internal/obs"
	"smartsock/internal/overload"
	"smartsock/internal/retry"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// resyncEvery is how many delta epochs a push stream carries before
// the transmitter refreshes the receiver with an unsolicited full
// snapshot.
const resyncEvery = 64

// pullIdleTimeout is how long a passive transmitter waits for the next
// request on a connection before closing it. A receiver keeps its pull
// connection between pulls, so this is what bounds that connection's
// idle life: a wizard nobody has asked for longer than this finds its
// connection closed and redials (see pullOne).
const pullIdleTimeout = 30 * time.Second

// keepBytes bounds the buffers either end of a pull connection keeps
// between pulls. A steady delta epoch is a few kilobytes, a full
// snapshot of a large database megabytes, and a connection sees one of
// those in its life: state a snapshot grew is released after use, so
// what stays is sized by the deltas.
const keepBytes = 64 << 10

// encodeState is the per-connection reusable encode state: one append
// buffer whose capacity settles at the largest frame the connection
// has sent (so steady-state epochs allocate nothing) and the three
// delta structs ChangedSince fills in place. Each connection owns its
// own state — sessions never share buffers, so no lock guards them.
type encodeState struct {
	buf  []byte
	sysD status.SysDelta
	netD status.NetDelta
	secD status.SecDelta
}

// Transmitter serialises the local status database toward receivers.
type Transmitter struct {
	db     *store.DB
	logger *log.Logger

	// Compat restores the thesis wire format: a full three-frame
	// snapshot every epoch, no snap marks, no deltas. The matching
	// receiver must run with Compat set too.
	Compat bool

	// sent counts complete full snapshots shipped. A snapshot whose
	// write died between frames is not counted here — it shows up in
	// sentPartial instead.
	sent *obs.Counter // transport_tx_snapshots
	// sentPartial counts snapshot writes that failed after at least one
	// frame was already on the wire.
	sentPartial *obs.Counter // transport_tx_snapshots_partial
	// deltas counts complete delta epochs shipped; all complete pushes
	// are sent + deltas.
	deltas *obs.Counter // transport_tx_delta_epochs
	// skipped counts epochs that carried no change at all, where the
	// transmitter skipped the network write entirely.
	skipped *obs.Counter // transport_tx_epochs_skipped
	// unknown counts frames of unexpected type passive mode has
	// rejected. A non-zero count means some peer speaks a newer (or
	// corrupted) protocol — the counter is the visible trace that frames
	// are being dropped rather than silently vanishing.
	unknown *obs.Counter // transport_tx_unknown_frames
	redials *obs.Counter // transport_tx_redials: backoff waits before a redial

	// Dial opens the push connection; nil means net.DialTimeout. The
	// chaos layer wraps stall/reset faults around it.
	Dial func(network, addr string) (net.Conn, error)
}

// NewTransmitterObs builds a transmitter over the given database whose
// counters live in reg under transport_tx_* names; a nil registry
// detaches them.
func NewTransmitterObs(db *store.DB, logger *log.Logger, reg *obs.Registry) (*Transmitter, error) {
	if db == nil {
		return nil, fmt.Errorf("transport: nil database")
	}
	return &Transmitter{
		db:          db,
		logger:      logger,
		sent:        reg.Counter("transport_tx_snapshots"),
		sentPartial: reg.Counter("transport_tx_snapshots_partial"),
		deltas:      reg.Counter("transport_tx_delta_epochs"),
		skipped:     reg.Counter("transport_tx_epochs_skipped"),
		unknown:     reg.Counter("transport_tx_unknown_frames"),
		redials:     reg.Counter("transport_tx_redials"),
	}, nil
}

// writeSnapshot sends one full snapshot over a connection, reusing
// enc.buf across the three frames (and across epochs: its capacity is
// pre-sized by the previous epoch's frame lengths). With mark set it
// closes the snapshot with a TypeSnapMark frame and returns the
// database version the receiver now mirrors. A complete snapshot
// counts toward sent; one that dies after the first byte counts
// toward sentPartial, never toward sent.
func (t *Transmitter) writeSnapshot(conn net.Conn, enc *encodeState, mark bool) (uint64, error) {
	sys, net, sec, ver := t.db.SnapshotAt()
	wrote := false
	fail := func(err error) (uint64, error) {
		if wrote {
			t.sentPartial.Add(1)
		}
		return 0, err
	}
	enc.buf = status.AppendSystemBatch(enc.buf[:0], sys)
	if err := status.WriteFrame(conn, status.Frame{Type: status.TypeSystem, Data: enc.buf}); err != nil {
		return fail(err)
	}
	wrote = true
	enc.buf = status.AppendNetBatch(enc.buf[:0], net)
	if err := status.WriteFrame(conn, status.Frame{Type: status.TypeNetwork, Data: enc.buf}); err != nil {
		return fail(err)
	}
	enc.buf = status.AppendSecBatch(enc.buf[:0], sec)
	if err := status.WriteFrame(conn, status.Frame{Type: status.TypeSecurity, Data: enc.buf}); err != nil {
		return fail(err)
	}
	if mark {
		enc.buf = status.AppendSnapMark(enc.buf[:0], ver)
		if err := status.WriteFrame(conn, status.Frame{Type: status.TypeSnapMark, Data: enc.buf}); err != nil {
			return fail(err)
		}
	}
	t.sent.Add(1)
	return ver, nil
}

// empty reports whether the staged delta carries nothing in any table.
func (enc *encodeState) empty() bool {
	return enc.sysD.Empty() && enc.netD.Empty() && enc.secD.Empty()
}

// writeEpoch sends the delta epoch staged in enc — its non-empty delta
// frames and, on a pull reply, the closing snap mark at ver — with one
// write: the frames are small, and a syscall apiece costs more than
// encoding them. The delta frames share one [base, new] version pair,
// which is how the receiver tells "next frame of this epoch" from a gap.
func (t *Transmitter) writeEpoch(conn net.Conn, enc *encodeState, mark bool, ver uint64) (err error) {
	enc.buf = enc.buf[:0]
	if !enc.sysD.Empty() {
		if enc.buf, err = status.AppendFrame(enc.buf, status.TypeSysDelta, status.AppendSysDelta, &enc.sysD); err != nil {
			return err
		}
	}
	if !enc.netD.Empty() {
		if enc.buf, err = status.AppendFrame(enc.buf, status.TypeNetDelta, status.AppendNetDelta, &enc.netD); err != nil {
			return err
		}
	}
	if !enc.secD.Empty() {
		if enc.buf, err = status.AppendFrame(enc.buf, status.TypeSecDelta, status.AppendSecDelta, &enc.secD); err != nil {
			return err
		}
	}
	deltas := len(enc.buf) > 0
	if mark {
		if enc.buf, err = status.AppendFrame(enc.buf, status.TypeSnapMark, status.AppendSnapMark, ver); err != nil {
			return err
		}
	}
	if _, err := conn.Write(enc.buf); err != nil {
		return fmt.Errorf("transport: write delta epoch: %w", err)
	}
	if deltas {
		t.deltas.Add(1)
	}
	return nil
}

// pushSession is the per-connection state of one centralized-mode
// push stream: the version the receiver mirrors and how many delta
// epochs have passed since the last full snapshot.
type pushSession struct {
	enc       encodeState
	base      uint64
	synced    bool
	sinceFull int
}

// pushEpoch ships one epoch over an established stream: a full
// snapshot when the stream is new, overdue for its periodic resync or
// the store can no longer serve the receiver's base; otherwise the
// delta since base, or nothing at all when the database is unchanged.
func (t *Transmitter) pushEpoch(conn net.Conn, s *pushSession) error {
	if t.Compat {
		_, err := t.writeSnapshot(conn, &s.enc, false)
		return err
	}
	if s.synced && s.sinceFull < resyncEvery {
		ver, ok := t.db.ChangedSince(s.base, &s.enc.sysD, &s.enc.netD, &s.enc.secD)
		if ok {
			s.sinceFull++
			if s.enc.empty() {
				t.skipped.Add(1)
				return nil
			}
			if err := t.writeEpoch(conn, &s.enc, false, ver); err != nil {
				return err
			}
			s.base = ver
			return nil
		}
	}
	ver, err := t.writeSnapshot(conn, &s.enc, true)
	if err != nil {
		s.synced = false
		return err
	}
	s.base = ver
	s.synced = true
	s.sinceFull = 0
	return nil
}

// RunActive implements centralized mode: push to the receiver every
// interval until the context is cancelled — a full snapshot when a
// connection is (re)established and deltas thereafter. Connection
// failures are logged and redialed with bounded exponential backoff —
// a dead receiver is not hammered every tick, and the first successful
// push restores the normal cadence.
func (t *Transmitter) RunActive(ctx context.Context, receiverAddr string, interval time.Duration) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	bo := &retry.Backoff{Base: interval, Max: 8 * interval, Metric: t.redials}
	timer := time.NewTimer(interval)
	defer timer.Stop()
	var conn net.Conn
	var sess pushSession
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	for {
		wait := interval
		if conn == nil {
			c, err := t.dial(receiverAddr)
			if err != nil {
				t.logf("transmitter: dial %s: %v", receiverAddr, err)
			} else {
				conn = c
				// A fresh connection mirrors nothing yet: start it
				// with a full snapshot, whatever the session held.
				sess.synced = false
			}
		}
		if conn != nil {
			if err := t.pushEpoch(conn, &sess); err != nil {
				t.logf("transmitter: push: %v", err)
				// The push error is already logged; redial after backoff.
				_ = conn.Close()
				conn = nil
			} else {
				bo.Reset()
			}
		}
		if conn == nil {
			wait = bo.Next()
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

// dial opens the push connection through the configured hook.
func (t *Transmitter) dial(addr string) (net.Conn, error) {
	if t.Dial != nil {
		return t.Dial("tcp", addr)
	}
	return net.DialTimeout("tcp", addr, 2*time.Second)
}

// ServePassive implements distributed mode: listen for TypeRequest
// frames and answer each. A thesis-style empty request (and any
// request in Compat mode) gets a full snapshot; a request carrying
// the puller's base version gets the delta since that base — or a
// full snapshot when the base is no longer servable — closed by a
// TypeSnapMark. It returns when the context is cancelled.
func (t *Transmitter) ServePassive(ctx context.Context, ln net.Listener) error {
	return serveConns(ctx, ln, func(c net.Conn) {
		var enc encodeState
		var rbuf []byte
		// A request is a header and a few payload bytes: read both at once.
		br := bufio.NewReaderSize(c, 64)
		for {
			if err := c.SetReadDeadline(time.Now().Add(pullIdleTimeout)); err != nil {
				return
			}
			var f status.Frame
			var err error
			f, rbuf, err = status.ReadFrameInto(br, rbuf)
			if err != nil {
				return
			}
			if f.Type != status.TypeRequest {
				t.unknown.Add(1)
				t.logf("transmitter: unexpected frame %v in passive mode", f.Type)
				return
			}
			if err := t.answerPull(c, f.Data, &enc); err != nil {
				t.logf("transmitter: reply: %v", err)
				return
			}
			if cap(enc.buf) > keepBytes {
				// That reply was a full snapshot or a long catch-up, and
				// the next is a steady delta: see keepBytes.
				enc = encodeState{}
			}
		}
	})
}

// serveConns is the accept loop of both listening roles (the passive
// transmitter, the centralized receiver): it hands every connection to
// handle on its own goroutine until the context is cancelled.
// Cancellation also closes the live connections at once — a parked
// puller must not ride out the read deadline, and a transmitter must
// not keep feeding a ghost receiver after a restart. However the loop
// ends, the connections are closed and their handlers waited for: once
// serveConns has returned, nothing it started still answers.
func serveConns(ctx context.Context, ln net.Listener, handle func(net.Conn)) error {
	ctx, cancel := context.WithCancel(ctx)
	var handlers sync.WaitGroup
	defer handlers.Wait()
	defer cancel()
	// Accept below surfaces the close as net.ErrClosed.
	stop := context.AfterFunc(ctx, func() { _ = ln.Close() })
	defer stop()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			defer conn.Close()
			stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
			defer stop()
			handle(conn)
		}()
	}
}

// answerPull serves one distributed-mode request on an established
// connection.
func (t *Transmitter) answerPull(conn net.Conn, req []byte, enc *encodeState) error {
	if t.Compat {
		_, err := t.writeSnapshot(conn, enc, false)
		return err
	}
	base, err := status.ParsePullRequest(req)
	if err != nil {
		return err
	}
	if base > 0 {
		ver, ok := t.db.ChangedSince(base, &enc.sysD, &enc.netD, &enc.secD)
		if ok {
			if enc.empty() {
				t.skipped.Add(1)
			}
			return t.writeEpoch(conn, enc, true, ver)
		}
	}
	_, err = t.writeSnapshot(conn, enc, true)
	return err
}

// Receiver mirrors transmitter snapshots into a local database for
// the wizard (§3.5.2).
type Receiver struct {
	db     *store.DB
	ln     net.Listener
	logger *log.Logger

	// Compat makes PullFrom speak the thesis pull protocol (see there).
	// The receiver has to be told: the thesis wire has no closing mark,
	// so nothing in a reply says where it ends. Push streams ignore it.
	Compat bool

	received *obs.Counter // transport_recv_frames: frames applied
	// torn counts transmitter connections that ended mid-frame — a
	// header or payload truncated by a crash, reset or stalled-then-cut
	// link, as opposed to a clean close between frames. Historically
	// both looked like a normal disconnect, hiding real faults from
	// operators.
	torn *obs.Counter // transport_recv_torn
	// resyncs counts how many times delta continuity broke and a full
	// snapshot had to re-anchor a source: a push-stream version gap or a
	// delta before any snapshot (the connection closes so the
	// transmitter's reconnect resyncs it), a pull delta whose base no
	// longer matches the mirror, or a pulled transmitter observed to
	// have restarted with a reset version counter.
	resyncs *obs.Counter // transport_recv_resyncs
	// unknown counts frames of a type this receiver does not dispatch,
	// on push streams or in pull replies. Each one also errors the
	// connection it came from; the counter makes the drops visible to
	// dashboards instead of leaving only a log line.
	unknown *obs.Counter // transport_recv_unknown_frames

	// catchup distributes how many database versions each epoch anchor
	// advanced the mirror by: 0–1 is the steady state, larger values
	// are post-partition catch-up.
	catchup *obs.Histogram

	// reg (possibly nil) mints the per-source lag gauges below lazily:
	// sources appear as they connect or get pulled.
	reg   *obs.Registry
	lagMu sync.Mutex
	lags  map[string]*sourceLag

	// pullMu guards pullVers and serialises delta/merge application of
	// pull replies, so two concurrent pulls from the same transmitter
	// cannot interleave an older reply over a newer one. Network reads
	// happen outside it.
	pullMu   sync.Mutex
	pullVers map[string]pullState

	// sessMu guards sessions, closed and every session's conn field (a
	// field write or read, never I/O).
	sessMu   sync.Mutex
	sessions map[string]*pullSession
	closed   bool

	// Dial opens distributed-mode pull connections; nil means
	// net.DialTimeout. The chaos layer wraps faults around it.
	Dial func(network, addr string) (net.Conn, error)

	// Overload, when set, registers every applied frame as a priority
	// bypass admission on the wizard's overload gate. Status
	// distribution is never queued behind and never shed with client
	// request traffic — the priority invariant the admission plane
	// promises — and this counter is its audit trail: overload_bypass
	// must reconcile with transport_recv_frames. Set before Run or the
	// first pull; nil skips the accounting.
	Overload *overload.Gate
}

// sourceLag is the epoch-lag pair for one transmitter: the newest
// version its frames have announced (head, set the moment a snap-mark
// or delta header is parsed) against the version actually applied to
// the mirror. The registered transport_epoch_lag gauge is their
// difference — zero in steady state, positive while a source's frames
// are being rejected or a staged pull has not landed.
type sourceLag struct {
	head    *obs.Gauge
	applied *obs.Gauge
}

// lagFor returns the lag pair for one source, registering its gauges
// on first sight. Sources are keyed by host (push streams use the
// remote IP, pulls the configured transmitter address) so reconnects
// reuse the same series instead of minting one per ephemeral port.
func (r *Receiver) lagFor(source string) *sourceLag {
	r.lagMu.Lock()
	defer r.lagMu.Unlock()
	if l, ok := r.lags[source]; ok {
		return l
	}
	l := &sourceLag{
		head:    r.reg.Gauge(fmt.Sprintf("transport_head_ver{source=%q}", source)),
		applied: r.reg.Gauge(fmt.Sprintf("transport_applied_ver{source=%q}", source)),
	}
	r.reg.GaugeFunc(fmt.Sprintf("transport_epoch_lag{source=%q}", source), func() int64 {
		return l.head.Value() - l.applied.Value()
	})
	r.lags[source] = l
	return l
}

// sourceHost reduces a remote address to its host so every reconnect
// from one transmitter maps to one lag series.
func sourceHost(addr string) string {
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}

// pullState is what the receiver remembers about one passive
// transmitter between pulls: the version of that transmitter's
// database it already mirrors.
type pullState struct {
	ver    uint64
	synced bool
}

// NewReceiverObs binds the receiver's listener (addr may use port 0).
// Its counters live in reg under transport_recv_* names, plus
// per-source transport_head_ver / transport_applied_ver /
// transport_epoch_lag gauges minted as transmitters appear. A nil
// registry detaches everything.
func NewReceiverObs(db *store.DB, addr string, logger *log.Logger, reg *obs.Registry) (*Receiver, error) {
	if db == nil {
		return nil, fmt.Errorf("transport: nil database")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	return &Receiver{
		db:       db,
		ln:       ln,
		logger:   logger,
		received: reg.Counter("transport_recv_frames"),
		torn:     reg.Counter("transport_recv_torn"),
		resyncs:  reg.Counter("transport_recv_resyncs"),
		unknown:  reg.Counter("transport_recv_unknown_frames"),
		catchup:  reg.Histogram("transport_epoch_catchup", obs.LagBuckets),
		reg:      reg,
		lags:     make(map[string]*sourceLag),
		pullVers: make(map[string]pullState),
		sessions: make(map[string]*pullSession),
	}, nil
}

// Addr reports the bound address.
func (r *Receiver) Addr() string { return r.ln.Addr().String() }

// admitted counts n applied frames and mirrors them onto the overload
// gate's bypass counter: status frames are priority traffic the
// admission plane may never shed, and keeping the two counters in
// lockstep here is what lets the chaos obs suite reconcile them.
func (r *Receiver) admitted(n int) {
	r.received.Add(uint64(n))
	r.Overload.Bypass(n)
}

// Torn and Resyncs read the counters of those names. They exist for
// the repo benchmark (benchmark/ is a module of its own and compiles
// against them); everything else reads the registry.
func (r *Receiver) Torn() uint64 { return r.torn.Value() }

// Resyncs: see Torn.
func (r *Receiver) Resyncs() uint64 { return r.resyncs.Value() }

// frameSet is a set of status frame types, one bit per type.
type frameSet uint16

const (
	batchFrames frameSet = 1<<status.TypeSystem | 1<<status.TypeNetwork | 1<<status.TypeSecurity
	deltaFrames frameSet = 1<<status.TypeSysDelta | 1<<status.TypeNetDelta | 1<<status.TypeSecDelta
	markFrame   frameSet = 1 << status.TypeSnapMark
)

// staged is what stage has decoded and nothing has applied yet: one
// frame of a push stream, or a whole pull reply — held back until it
// is complete, because a connection dying mid-snapshot must not leak
// half a server list into the wizard's view alongside a healthy reply.
// got says which frame types went in; the delta views alias the frame
// buffers they were parsed from and keep their capacity across uses.
type staged struct {
	got  frameSet
	sys  []status.ServerStatus
	net  []status.NetMetric
	sec  []status.SecLevel
	sysV status.SysDeltaView
	netV status.NetDeltaView
	secV status.SecDeltaView
	// top is the version the staged frames bring a mirror to: the new
	// version of the delta frames, which all share one [base, top] pair,
	// and the version of the snap mark that closes them.
	base, top uint64
}

// connState is the per-connection decode state of one push stream:
// the version this stream has mirrored so far plus the reusable read
// buffer and staging area, so a steady delta stream applies without
// per-frame allocation.
type connState struct {
	buf      []byte
	frame    staged
	ver      uint64
	epochTop uint64 // NewVer of the epoch currently being applied
	synced   bool
	lag      *sourceLag // epoch-lag series for this stream's source; nil in test harnesses
}

// Run accepts transmitter connections (centralized mode) until the
// context is cancelled, and closes the receiver when it returns.
func (r *Receiver) Run(ctx context.Context) error {
	// The accept loop ends with the context (or with Close): either way
	// the receiver is done, kept pull connections included.
	defer r.Close()
	return serveConns(ctx, r.ln, func(c net.Conn) {
		var cs connState
		cs.lag = r.lagFor(sourceHost(c.RemoteAddr().String()))
		for {
			var f status.Frame
			var err error
			f, cs.buf, err = status.ReadFrameInto(c, cs.buf)
			if err != nil {
				// io.EOF before a header byte is the transmitter
				// closing cleanly between frames, and net.ErrClosed
				// is our own shutdown. Anything else — notably a
				// wrapped io.ErrUnexpectedEOF — means the stream died
				// mid-frame: count and report it instead of passing it
				// off as a normal disconnect.
				if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
					r.torn.Add(1)
					r.logf("receiver: connection torn mid-frame: %v", err)
				}
				return
			}
			if err := r.apply(f, &cs); err != nil {
				r.logf("receiver: %v", err)
				return
			}
		}
	})
}

// errResync marks a delta continuity violation: the connection must
// close so the transmitter's reconnect delivers a full snapshot.
var errResync = errors.New("transport: delta continuity broken, forcing resync")

// stage decodes one frame into st. It is the only place that knows the
// seven status frame types, and it only decodes: whether and when the
// content reaches the mirror is the policy of its two callers — apply
// for a push stream, roundTrip and applyPull for a pull reply. What
// accumulates in one st must be one epoch: its delta frames share one
// [base, top] pair, and a snap mark closes them at top.
func (r *Receiver) stage(f status.Frame, st *staged) (err error) {
	base, top := st.base, st.top
	switch f.Type {
	case status.TypeSystem:
		st.sys, err = status.UnmarshalSystemBatch(f.Data)
	case status.TypeNetwork:
		st.net, err = status.UnmarshalNetBatch(f.Data)
	case status.TypeSecurity:
		st.sec, err = status.UnmarshalSecBatch(f.Data)
	case status.TypeSysDelta:
		err = st.sysV.Parse(f.Data)
		base, top = st.sysV.BaseVer, st.sysV.NewVer
	case status.TypeNetDelta:
		err = st.netV.Parse(f.Data)
		base, top = st.netV.BaseVer, st.netV.NewVer
	case status.TypeSecDelta:
		err = st.secV.Parse(f.Data)
		base, top = st.secV.BaseVer, st.secV.NewVer
	case status.TypeSnapMark:
		top, err = status.ParseSnapMark(f.Data)
	default:
		r.unknown.Add(1)
		return fmt.Errorf("transport: unexpected frame type %v", f.Type)
	}
	if err != nil {
		return err
	}
	if st.got&deltaFrames != 0 && (base != st.base || top != st.top) {
		// The mark's version is what a puller records as its next base:
		// if it ran ahead of the deltas' top, the mirror would silently
		// skip every change in between.
		return fmt.Errorf("transport: %v frame at [%d, %d] in an epoch covering [%d, %d]", f.Type, base, top, st.base, st.top)
	}
	st.base, st.top = base, top
	st.got |= 1 << f.Type
	return nil
}

// applyDeltas merges the delta frames staged in st into the mirror.
func (r *Receiver) applyDeltas(st *staged) {
	if st.got&(1<<status.TypeSysDelta) != 0 {
		r.db.ApplySysDelta(st.sysV.Changed, st.sysV.Deleted, st.sysV.Refreshed)
	}
	if st.got&(1<<status.TypeNetDelta) != 0 {
		r.db.ApplyNetDelta(st.netV.Changed, st.netV.Deleted, st.netV.Refreshed)
	}
	if st.got&(1<<status.TypeSecDelta) != 0 {
		r.db.ApplySecDelta(st.secV.Changed, st.secV.Deleted, st.secV.Refreshed)
	}
}

// apply loads one push-stream frame into the database as it arrives:
// a full batch frame replaces its section, a snap mark anchors the
// stream's version, a delta frame merges incrementally once admitDelta
// has checked its continuity. Returning an error closes the connection.
func (r *Receiver) apply(f status.Frame, cs *connState) error {
	st := &cs.frame
	st.got, st.sys, st.net, st.sec = 0, nil, nil, nil
	if err := r.stage(f, st); err != nil {
		return err
	}
	switch {
	case st.got&markFrame != 0:
		if cs.synced && st.top > cs.ver {
			// A periodic resync snapshot advanced an already-anchored
			// stream; record how far it jumped. The first snapshot of a
			// stream is an anchor, not catch-up, and is not observed.
			r.catchup.Observe(int64(st.top - cs.ver))
		}
		cs.ver, cs.epochTop = st.top, st.top
		cs.synced = true
		if cs.lag != nil {
			cs.lag.head.Set(int64(st.top)) // applied follows below
		}
	case st.got&deltaFrames != 0:
		if err := r.admitDelta(cs, st.base, st.top); err != nil {
			return err
		}
		r.applyDeltas(st)
	default:
		// Nil sections stay untouched: only the frame's own table loads.
		r.db.Load(st.sys, st.net, st.sec)
	}
	if cs.synced && cs.lag != nil {
		// The frame landed in the mirror: applied has caught up to the
		// stream's version (a no-op re-set on snap marks).
		cs.lag.applied.Set(int64(cs.ver))
	}
	r.admitted(1)
	return nil
}

// admitDelta validates one delta frame's version continuity. The
// frames of one epoch share a [base, new] pair: the first moves the
// stream from ver to NewVer, the rest must repeat the same pair. Any
// other combination is a gap — some epoch was lost — and the stream
// cannot be trusted until a full snapshot re-anchors it.
func (r *Receiver) admitDelta(cs *connState, base, newVer uint64) error {
	// The frame header announces the transmitter's head whether or not
	// the frame is admitted; a rejected frame leaves head ahead of
	// applied, which is exactly the lag an operator should see.
	if cs.lag != nil && newVer > cs.ver {
		cs.lag.head.Set(int64(newVer))
	}
	if !cs.synced {
		r.resyncs.Add(1)
		return fmt.Errorf("%w: delta before snapshot", errResync)
	}
	switch {
	case base == cs.ver && newVer >= base:
		// First frame of a new epoch.
		r.catchup.Observe(int64(newVer - base))
		cs.epochTop = newVer
		cs.ver = newVer
		return nil
	case base < cs.ver && cs.ver == cs.epochTop && newVer == cs.epochTop:
		// Another frame of the epoch we are already applying.
		return nil
	default:
		cs.synced = false
		r.resyncs.Add(1)
		return fmt.Errorf("%w: at %d, frame covers [%d, %d]", errResync, cs.ver, base, newVer)
	}
}

// PullFrom implements the distributed-mode update: ask each passive
// transmitter for what changed since the last pull (a full snapshot
// on the first) and merge the replies record by record. The wizard
// calls this when a user request arrives (§3.5.2), so each pull runs
// on the transmitter's pull session: a kept connection, kept buffers.
// Unreachable transmitters are reported but do not abort the pull. The
// thesis pull (Compat) runs through the same loop and differs in three
// places: pullOne asks without a base, roundTrip takes a reply as
// complete without a mark, and the complete replies are not merged one
// by one but loaded here as one union.
func (r *Receiver) PullFrom(transmitters []string, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	var firstErr error
	applied := false
	var union staged
	for _, addr := range transmitters {
		if err := r.pullOne(addr, timeout, &union); err != nil {
			r.logf("receiver: pull %s: %v", addr, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		applied = true
	}
	if r.Compat && applied {
		// The thesis wire has no tombstones: a host is gone when no
		// transmitter reports it any more, which only replacing the
		// tables with the union of this round's replies can express.
		r.db.Load(union.sys, union.net, union.sec)
		r.admitted(3)
	}
	if applied || firstErr == nil {
		return nil
	}
	return fmt.Errorf("transport: pull failed everywhere: %w", firstErr)
}

// pullBase reads the version already mirrored from one transmitter.
func (r *Receiver) pullBase(addr string) uint64 {
	r.pullMu.Lock()
	defer r.pullMu.Unlock()
	if st, ok := r.pullVers[addr]; ok && st.synced {
		return st.ver
	}
	return 0
}

// pullSession is what the receiver keeps per passive transmitter between
// pulls: the connection — ServePassive answers any number of requests on
// one — and every buffer a pull fills, so a steady pull dials nothing and
// allocates next to nothing. mu serialises the pulls of one transmitter,
// network round trip included: a connection carries one exchange at a
// time, and the second of two concurrent pulls asks from the base the
// first one reached.
type pullSession struct {
	mu sync.Mutex
	// conn is nil when no connection is kept. Only the holder of mu
	// writes it, and under Receiver.sessMu as well, so Close can reach
	// the connection of a pull in flight.
	conn net.Conn
	br   *bufio.Reader // over conn
	req  []byte        // the request frame
	// bufs holds one buffer per frame of a reply, not one for all: the
	// staged delta views alias the buffer they were parsed from, and
	// nothing is applied before the whole reply is staged.
	bufs  [][]byte
	reply staged
}

// maxReplyFrames is the most frames a well-formed reply has: one per
// table and the closing mark.
const maxReplyFrames = 4

// release ends a pull. The batch records now belong to the mirror; the
// buffers and views stay for the next pull unless a full snapshot (or a
// peer that never closes its reply) grew them: see keepBytes.
func (s *pullSession) release() {
	s.reply.sys, s.reply.net, s.reply.sec = nil, nil, nil
	grown := len(s.bufs) > maxReplyFrames
	for _, b := range s.bufs {
		grown = grown || cap(b) > keepBytes
	}
	if grown {
		s.bufs, s.reply = nil, staged{}
	}
}

var (
	errClosed = errors.New("transport: receiver closed")
	// errStale marks a pull that failed because the kept connection had
	// been closed by the peer since the last pull — the transmitter's idle
	// deadline, a restart, a reset — which says nothing about the peer's
	// health now: pullOne redials and asks again.
	errStale = errors.New("transport: kept pull connection is stale")
)

// session returns the pull session of one transmitter address.
func (r *Receiver) session(addr string) (*pullSession, error) {
	r.sessMu.Lock()
	defer r.sessMu.Unlock()
	if r.closed {
		return nil, errClosed
	}
	s := r.sessions[addr]
	if s == nil {
		s = &pullSession{br: bufio.NewReader(nil)}
		r.sessions[addr] = s
	}
	return s, nil
}

// connect dials the session's transmitter and keeps the connection,
// unless the receiver was closed meanwhile: a closed receiver keeps none.
func (r *Receiver) connect(s *pullSession, addr string, timeout time.Duration) error {
	conn, err := r.dialPull(addr, timeout)
	if err != nil {
		return err
	}
	r.sessMu.Lock()
	closed := r.closed
	if !closed {
		s.conn = conn
	}
	r.sessMu.Unlock()
	if closed {
		// The pull is refused whatever this close reports.
		_ = conn.Close()
		return errClosed
	}
	s.br.Reset(conn)
	return nil
}

// drop closes the session's connection after a failed exchange: what is
// left unread on it belongs to no reply.
func (r *Receiver) drop(s *pullSession) {
	r.sessMu.Lock()
	conn := s.conn
	s.conn = nil
	r.sessMu.Unlock()
	// The exchange's own error is the one reported; after Close this is
	// a second close of the same connection.
	_ = conn.Close()
}

// Close releases what the receiver holds open: its listener and every
// kept pull connection. A pull in flight fails on its closed connection
// and a later one is refused; neither keeps a new one. Run closes the
// receiver when its context ends; one that only ever pulls is closed by
// its owner.
func (r *Receiver) Close() error {
	r.sessMu.Lock()
	r.closed = true
	var conns []net.Conn
	for _, s := range r.sessions {
		if s.conn != nil {
			conns = append(conns, s.conn)
		}
	}
	r.sessMu.Unlock()
	for _, c := range conns {
		// Nothing is in flight that a failed close could lose: a pull
		// cut here reports its own error.
		_ = c.Close()
	}
	if err := r.ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("transport: close listener: %w", err)
	}
	return nil
}

// pullOne asks one transmitter for changes since the locally mirrored
// version, on the session's kept connection or a fresh one, and applies
// the complete reply — or, in thesis mode, adds the complete reply to
// union for PullFrom to load. A kept connection that turns out stale is
// redialed once; any other failure drops the connection and is the
// pull's error.
func (r *Receiver) pullOne(addr string, timeout time.Duration, union *staged) error {
	s, err := r.session(addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.release()
	// A thesis request carries no base (base 0 encodes as the empty
	// payload), so every thesis reply is the whole database.
	var base uint64
	if !r.Compat {
		base = r.pullBase(addr)
	}
	for reused := s.conn != nil; ; reused = false {
		if s.conn == nil {
			if err := r.connect(s, addr, timeout); err != nil {
				return err
			}
		}
		err := r.roundTrip(s, base, timeout, reused)
		if err == nil {
			break
		}
		r.drop(s)
		if !errors.Is(err, errStale) {
			return err
		}
	}
	if r.Compat {
		union.sys = append(union.sys, s.reply.sys...)
		union.net = append(union.net, s.reply.net...)
		union.sec = append(union.sec, s.reply.sec...)
		return nil
	}
	return r.applyPull(addr, base, &s.reply)
}

// roundTrip sends one request on the session's connection and stages the
// complete reply in s.reply. On a reused connection, failing to send the
// request, or finding the stream ended or reset before one reply byte
// arrived, is errStale and not counted as torn; everything else fails as
// it would on a fresh connection.
func (r *Receiver) roundTrip(s *pullSession, base uint64, timeout time.Duration, reused bool) error {
	stale := func(err error) error {
		if reused {
			return fmt.Errorf("%w: %v", errStale, err)
		}
		return err
	}
	if err := s.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return stale(err)
	}
	var err error
	if s.req, err = status.AppendFrame(s.req[:0], status.TypeRequest, status.AppendPullRequest, base); err != nil {
		return err
	}
	if _, err := s.conn.Write(s.req); err != nil {
		return stale(fmt.Errorf("transport: write pull request: %w", err))
	}
	if reused {
		// Any other error here (a timeout, say) meets the read below
		// again and is counted there, as on a fresh connection.
		if _, err := s.br.Peek(1); errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) {
			return stale(err)
		}
	}
	// A reply is complete at its closing snap mark; a thesis reply,
	// having none, at one batch frame of each table.
	done := markFrame
	if r.Compat {
		done = batchFrames
	}
	reply := &s.reply
	reply.got, reply.base, reply.top = 0, 0, 0
	for i := 0; reply.got&done != done; i++ {
		if i == len(s.bufs) {
			s.bufs = append(s.bufs, nil)
		}
		var f status.Frame
		f, s.bufs[i], err = status.ReadFrameInto(s.br, s.bufs[i])
		if err != nil {
			if !errors.Is(err, io.EOF) {
				r.torn.Add(1)
			}
			return err
		}
		if err := r.stage(f, reply); err != nil {
			return err
		}
		if reply.got&deltaFrames != 0 && reply.base != base {
			return fmt.Errorf("transport: pull delta base %d, requested %d", reply.base, base)
		}
		if r.Compat && reply.got&^batchFrames != 0 {
			// Deltas and marks are as foreign to the thesis wire as a
			// type nobody dispatches, and counted like one.
			r.unknown.Add(1)
			return fmt.Errorf("transport: unexpected frame type %v in thesis pull reply", f.Type)
		}
	}
	return nil
}

// applyPull merges one complete staged reply. The version check under
// pullMu makes the merge safe against concurrent pulls of the same
// transmitter: a reply computed against a base another pull has
// already moved past is discarded rather than applied out of order,
// and a full reply older than what is already mirrored cannot clobber
// the fresher records.
func (r *Receiver) applyPull(addr string, base uint64, reply *staged) error {
	lag := r.lagFor(addr)
	// The closing snap mark announced the transmitter's head; applied
	// only follows below if the reply actually lands, so a discarded
	// reply leaves the gap visible as transport_epoch_lag.
	lag.head.Set(int64(reply.top))
	r.pullMu.Lock()
	defer r.pullMu.Unlock()
	cur, haveCur := r.pullVers[addr]
	switch {
	case reply.got&batchFrames != 0:
		if haveCur && cur.synced && cur.ver >= reply.top {
			if cur.ver != base {
				// A concurrent pull already moved this transmitter's
				// mirror past the base this reply was computed
				// against; an older full reply must not roll fresher
				// records back.
				return nil
			}
			// cur.ver == base: no pull interleaved, yet the reply is a
			// full snapshot at or below the base we asked to diff
			// from. The transmitter restarted and its version counter
			// reset — adopt the snapshot and its new, smaller version.
			// Discarding it would pin the mirror to a base the source
			// can never serve again, freezing this transmitter out of
			// the wizard's view until its hosts expire.
			r.resyncs.Add(1)
		}
		// Merge upserts but never deletes, so hosts the transmitter
		// pruned from its tombstone table (>4096 expiries between
		// pulls) can linger here until MaxStatusAge ages them out; see
		// DESIGN.md "status distribution" for the trade-off.
		r.db.Merge(reply.sys, reply.net, reply.sec)
		r.admitted(3)
	case reply.got&deltaFrames != 0:
		if !haveCur || !cur.synced || cur.ver != base {
			// The base this delta was computed against is no longer
			// what we mirror (a concurrent pull interleaved); drop it
			// and let the next pull restart from the current version.
			r.resyncs.Add(1)
			r.pullVers[addr] = pullState{}
			return nil
		}
		r.applyDeltas(reply)
		r.catchup.Observe(int64(reply.top - base))
		r.admitted(1)
	default:
		// An empty reply: the transmitter had nothing newer. Leave the
		// mirrored version untouched — head and applied agree.
		lag.applied.Set(int64(reply.top))
		return nil
	}
	lag.applied.Set(int64(reply.top))
	r.pullVers[addr] = pullState{ver: reply.top, synced: true}
	return nil
}

// dialPull opens a pull connection through the configured hook.
func (r *Receiver) dialPull(addr string, timeout time.Duration) (net.Conn, error) {
	if r.Dial != nil {
		return r.Dial("tcp", addr)
	}
	return net.DialTimeout("tcp", addr, timeout)
}

func (t *Transmitter) logf(format string, args ...any) {
	if t.logger != nil {
		t.logger.Printf(format, args...)
	}
}

func (r *Receiver) logf(format string, args ...any) {
	if r.logger != nil {
		r.logger.Printf(format, args...)
	}
}
