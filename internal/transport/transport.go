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
// On top of both modes sits a delta protocol, and its unit is the
// epoch. The thesis re-ships the full database every epoch (§4.4);
// here an epoch is either a full snapshot (one to three batch frames)
// or the delta since the version the receiver mirrors (up to three of
// TypeSysDelta / TypeNetDelta / TypeSecDelta: records that changed,
// tombstones for expired ones, keys re-reported unchanged), and every
// epoch closes with a TypeSnapMark frame carrying the database version
// it brings a mirror to. A stream starts with a snapshot; a push epoch
// in which nothing moved sends nothing at all, a pull reply then is the
// bare mark. A push stream is a sequence of pull replies nobody asked
// for: the receiver reads both with one function (readEpoch) and lands
// both with one (applyEpoch) — whole at the mark, or not at all, a
// snapshot by per-record merge so that several transmitters can feed
// one mirror. It validates continuity by version: a delta that does
// not continue what is mirrored closes a push connection, which makes
// the transmitter's reconnect (a fresh full snapshot) the resync
// mechanism, and resets a pull source so the next pull asks for
// everything; a periodic full snapshot bounds how long a silent
// divergence could last.
//
// Compat, set on both ends, is the thesis wire exactly — three batch
// frames per epoch or per reply, nothing else — on the same code: the
// transmitter always ships the full snapshot and leaves out the mark;
// the receiver takes an epoch as complete at one batch frame of each
// table and loads it whole, a pull round as the union of its replies.
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
	"math/bits"
	"net"
	"sync"
	"syscall"
	"time"

	"smartsock/internal/loop"
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
// enc.buf across the frames (and across epochs: its capacity is
// pre-sized by the previous epoch's frame lengths), closes it with a
// TypeSnapMark frame and returns the database version the receiver now
// mirrors. The thesis wire has no mark and its receiver mirrors no
// version: under Compat none is sent and the version returned is 0. A
// complete snapshot counts toward sent; one that dies after the first
// byte counts toward sentPartial, never toward sent.
func (t *Transmitter) writeSnapshot(conn net.Conn, enc *encodeState) (uint64, error) {
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
	if t.Compat {
		ver = 0
	} else {
		enc.buf = status.AppendSnapMark(enc.buf[:0], ver)
		if err := status.WriteFrame(conn, status.Frame{Type: status.TypeSnapMark, Data: enc.buf}); err != nil {
			return fail(err)
		}
	}
	t.sent.Add(1)
	return ver, nil
}

// writeEpoch sends the delta epoch staged in enc — its non-empty delta
// frames and the snap mark at ver that closes it — with one write: the
// frames are small, and a syscall apiece costs more than encoding them.
// The delta frames share one [base, ver] pair and the mark repeats ver,
// which is how the receiver tells one epoch from a gap. An epoch with
// nothing in it is the bare mark, and counts as skipped.
func (t *Transmitter) writeEpoch(conn net.Conn, enc *encodeState, ver uint64) (err error) {
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
	counter := t.deltas
	if len(enc.buf) == 0 {
		counter = t.skipped
	}
	if enc.buf, err = status.AppendFrame(enc.buf, status.TypeSnapMark, status.AppendSnapMark, ver); err != nil {
		return err
	}
	if _, err := conn.Write(enc.buf); err != nil {
		return fmt.Errorf("transport: write delta epoch: %w", err)
	}
	counter.Add(1)
	return nil
}

// sendSince ships one epoch to a receiver that mirrors this database at
// base (0: not at all) and returns the version it mirrors afterwards:
// the delta since base when the store can still serve it, else — and
// always on the thesis wire — a full snapshot. It is a pull's whole
// answer and a push stream's every epoch.
func (t *Transmitter) sendSince(conn net.Conn, enc *encodeState, base uint64) (uint64, error) {
	if base > 0 && !t.Compat {
		if ver, ok := t.db.ChangedSince(base, &enc.sysD, &enc.netD, &enc.secD); ok {
			return ver, t.writeEpoch(conn, enc, ver)
		}
	}
	return t.writeSnapshot(conn, enc)
}

// pushSession is the per-connection state of one centralized-mode
// push stream: the version the receiver mirrors (0 before its first
// snapshot, and on the thesis wire always) and how many epochs have
// passed since a full snapshot was last asked for.
type pushSession struct {
	enc       encodeState
	base      uint64
	sinceFull int
}

// pushEpoch ships one epoch over an established stream: what sendSince
// makes of the stream's base — no base when the stream is overdue for
// its periodic resync — or, nobody having asked, nothing at all when the
// database has not moved since.
func (t *Transmitter) pushEpoch(conn net.Conn, s *pushSession) error {
	base := s.base
	if s.sinceFull >= resyncEvery {
		base = 0
	}
	if base > 0 && t.db.Ver() == base {
		s.sinceFull++
		t.skipped.Add(1)
		return nil
	}
	ver, err := t.sendSince(conn, &s.enc, base)
	if err != nil {
		s.base = 0
		return err
	}
	s.base = ver
	s.sinceFull++
	if base == 0 {
		s.sinceFull = 0
	}
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
	var conn net.Conn
	var sess pushSession
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	return loop.Every(ctx, interval, bo, func() error {
		if conn == nil {
			c, err := t.dial(receiverAddr)
			if err != nil {
				t.logf("transmitter: dial %s: %v", receiverAddr, err)
				return err
			}
			conn = c
			// A fresh connection mirrors nothing yet: start it with a
			// full snapshot, whatever the session held.
			sess.base = 0
		}
		if err := t.pushEpoch(conn, &sess); err != nil {
			t.logf("transmitter: push: %v", err)
			// The push error is already logged; redial after backoff.
			_ = conn.Close()
			conn = nil
			return err
		}
		return nil
	})
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
	return loop.Serve(ctx, ln, func(_ context.Context, c net.Conn) {
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

// answerPull serves one distributed-mode request on an established
// connection: the epoch since the base the request names.
func (t *Transmitter) answerPull(conn net.Conn, req []byte, enc *encodeState) error {
	base, err := status.ParsePullRequest(req)
	if err != nil {
		return err
	}
	_, err = t.sendSince(conn, enc, base)
	return err
}

// Receiver mirrors transmitter snapshots into a local database for
// the wizard (§3.5.2).
type Receiver struct {
	db     *store.DB
	ln     net.Listener
	logger *log.Logger

	// Compat makes the receiver read the thesis wire, pushed or pulled
	// (see readEpoch and PullFrom). It has to be told: the thesis wire has
	// no closing mark, so nothing in a stream says where an epoch ends.
	Compat bool

	// received counts the batch and delta frames of the epochs that
	// reached the mirror, in either mode.
	received *obs.Counter // transport_recv_frames
	// torn counts transmitter connections that ended mid-frame — a
	// header or payload truncated by a crash, reset or stalled-then-cut
	// link, as opposed to a clean close between frames. Historically
	// both looked like a normal disconnect, hiding real faults from
	// operators.
	torn *obs.Counter // transport_recv_torn
	// resyncs counts how many times delta continuity broke and a full
	// snapshot had to re-anchor a source: a delta that does not continue
	// what is mirrored — a version gap, a delta before any snapshot —
	// (a push connection closes so the transmitter's reconnect resyncs
	// it, a pull source is reset), or a transmitter observed to have
	// restarted with a reset version counter.
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
	// sources appear as they connect or get a pull session.
	reg   *obs.Registry
	lagMu sync.Mutex
	lags  map[string]*sourceLag

	// sessMu guards sessions, closed and every session's conn field (a
	// field write or read, never I/O).
	sessMu   sync.Mutex
	sessions map[string]*pullSession
	closed   bool

	// Dial opens distributed-mode pull connections; nil means
	// net.DialTimeout. The chaos layer wraps faults around it.
	Dial func(network, addr string) (net.Conn, error)

	// Overload, when set, registers every received frame as a priority
	// bypass admission on the wizard's overload gate. Status
	// distribution is never queued behind and never shed with client
	// request traffic — the priority invariant the admission plane
	// promises — and this counter is its audit trail: overload_bypass
	// must reconcile with transport_recv_frames. Set before Run or the
	// first pull; nil skips the accounting.
	Overload *overload.Gate
}

// sourceLag is the epoch-lag pair for one transmitter: the newest
// version a complete epoch of its has announced (head) against the
// version actually applied to the mirror. The registered
// transport_epoch_lag gauge is their difference, which applyEpoch keeps
// at zero: every complete epoch lands.
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

// mirrorState is how far the mirror follows one transmitter: the
// version of that transmitter's database it holds, once a full snapshot
// has anchored it.
type mirrorState struct {
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
		sessions: make(map[string]*pullSession),
	}, nil
}

// Addr reports the bound address.
func (r *Receiver) Addr() string { return r.ln.Addr().String() }

// admitted counts n received frames and mirrors them onto the overload
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

// staged is one epoch as stage has decoded it and nothing has applied
// yet — held back until it is complete, because a connection dying
// mid-snapshot must not leak half a server list into the wizard's view.
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

// maxEpochFrames is the most frames a well-formed epoch has: one per
// table and the closing mark.
const maxEpochFrames = 4

// source is everything the receiver mirrors of one transmitter, and its
// one owner: a push connection's handler holds one for the connection's
// life, a pull session one for its address's. bufs and st are what
// reading an epoch fills and reuses, so a steady delta stream decodes
// without per-frame allocation — a buffer per frame of an epoch, not one
// for all: the staged delta views alias the buffer they were parsed
// from, and nothing is applied before the whole epoch is staged. mirror
// is what the epochs applied so far have brought the mirror to, lag its
// gauges.
type source struct {
	bufs   [maxEpochFrames][]byte
	st     staged
	mirror mirrorState
	lag    *sourceLag
}

// release ends an epoch. The batch records now belong to the mirror; the
// buffers and views stay for the next epoch unless a full snapshot grew
// them: see keepBytes.
func (s *source) release() {
	s.st.sys, s.st.net, s.st.sec = nil, nil, nil
	for _, b := range s.bufs {
		if cap(b) > keepBytes {
			s.bufs, s.st = [maxEpochFrames][]byte{}, staged{}
			return
		}
	}
}

// Run accepts transmitter connections (centralized mode) until the
// context is cancelled, and closes the receiver when it returns. A push
// stream is read and applied an epoch at a time, like a pull reply; what
// it mirrors lives and dies with its connection.
func (r *Receiver) Run(ctx context.Context) error {
	// The accept loop ends with the context (or with Close): either way
	// the receiver is done, kept pull connections included.
	defer r.Close()
	return loop.Serve(ctx, r.ln, func(_ context.Context, c net.Conn) {
		s := source{lag: r.lagFor(sourceHost(c.RemoteAddr().String()))}
		for {
			if err := r.readEpoch(c, &s); err != nil {
				// io.EOF before a header byte is the transmitter closing
				// cleanly between frames, and net.ErrClosed is our own
				// shutdown; readEpoch has counted anything torn.
				if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
					r.logf("receiver: %v", err)
				}
				return
			}
			r.applyEpoch(&s)
			s.release()
		}
	})
}

// errResync marks a delta continuity violation: the source has forgotten
// its base, a push connection must close so the transmitter's reconnect
// delivers a full snapshot, and a pull session's next pull asks for one.
var errResync = errors.New("transport: delta continuity broken, forcing resync")

// stage decodes one frame into st. It is the only place that knows the
// seven status frame types, and it only decodes: when an epoch is
// complete is readEpoch's business, whether it reaches the mirror
// applyEpoch's. What accumulates in one st must be one epoch: its delta
// frames share one [base, top] pair, and a snap mark closes them at top.
func (r *Receiver) stage(f status.Frame, st *staged) (err error) {
	base, top := st.base, st.top
	switch f.Type {
	case status.TypeSystem:
		r.db.SysNames(func(names status.Names) { st.sys, err = status.UnmarshalSystemBatch(f.Data, names) })
	case status.TypeNetwork:
		st.net, err = status.UnmarshalNetBatch(f.Data)
	case status.TypeSecurity:
		st.sec, err = status.UnmarshalSecBatch(f.Data)
	case status.TypeSysDelta:
		r.db.SysNames(func(names status.Names) { err = st.sysV.ParseWith(f.Data, names) })
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
		// The mark's version is what the mirror records as its next base:
		// if it ran ahead of the deltas' top, the mirror would silently
		// skip every change in between.
		return fmt.Errorf("transport: %v frame at [%d, %d] in an epoch covering [%d, %d]", f.Type, base, top, st.base, st.top)
	}
	st.base, st.top = base, top
	st.got |= 1 << f.Type
	return nil
}

// readEpoch reads the frames of one epoch from src and stages them in
// s.st. An epoch is complete at its closing snap mark; a thesis epoch,
// having none, at one batch frame of each table. A delta frame that does
// not continue s.mirror is refused as it arrives — a gap does not wait
// for a mark — and s forgets its base; a stream that ends inside a frame
// is counted as torn, one that ends between frames (io.EOF) or by our
// own shutdown is not, and either way nothing of the epoch is applied.
func (r *Receiver) readEpoch(src io.Reader, s *source) error {
	done := markFrame
	if r.Compat {
		done = batchFrames
	}
	st, m := &s.st, s.mirror
	st.got, st.base, st.top = 0, 0, 0
	for i := 0; st.got&done != done; i++ {
		if i == maxEpochFrames {
			return fmt.Errorf("transport: epoch still open after %d frames", i)
		}
		var f status.Frame
		var err error
		f, s.bufs[i], err = status.ReadFrameInto(src, s.bufs[i])
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				r.torn.Add(1)
			}
			return err
		}
		if err := r.stage(f, st); err != nil {
			return err
		}
		if st.got&deltaFrames != 0 && (!m.synced || m.ver != st.base) {
			r.resyncs.Add(1)
			s.mirror = mirrorState{}
			return fmt.Errorf("%w: at %d, %v frame covers [%d, %d]", errResync, m.ver, f.Type, st.base, st.top)
		}
		if r.Compat && st.got&^batchFrames != 0 {
			// Deltas and marks are as foreign to the thesis wire as a
			// type nobody dispatches, and counted like one.
			r.unknown.Add(1)
			return fmt.Errorf("transport: unexpected frame type %v on the thesis wire", f.Type)
		}
	}
	return nil
}

// applyEpoch lands the complete epoch staged in s in the mirror, and
// moves s.mirror and the source's lag gauges with it. A full snapshot is
// merged record by record, so it cannot wipe another transmitter's
// hosts; a delta continues s.mirror, or readEpoch would have refused it;
// a bare mark says nothing moved.
func (r *Receiver) applyEpoch(s *source) {
	st, m := &s.st, &s.mirror
	// A complete epoch always lands, so the head its mark announced is
	// what is applied; an epoch readEpoch refused never gets here, and
	// counts in transport_recv_resyncs.
	s.lag.head.Set(int64(st.top))
	s.lag.applied.Set(int64(st.top))
	switch {
	case r.Compat:
		// A thesis epoch has neither versions nor tombstones (top is 0):
		// all it can say is what the tables now hold, whole.
		r.db.Load(st.sys, st.net, st.sec)
	case st.got&batchFrames != 0:
		if m.synced && m.ver > st.top {
			// A full snapshot below the version mirrored, which is the one
			// it was asked from: the transmitter restarted and its version
			// counter reset — adopt the snapshot and its new, smaller
			// version. Discarding it would pin the mirror to a base the
			// source can never serve again, freezing this transmitter out
			// of the wizard's view until its hosts expire.
			r.resyncs.Add(1)
		}
		// Merge upserts but never deletes, so hosts the transmitter
		// dropped while its link was down, or pruned from its tombstone
		// table (>4096 expiries), linger here until MaxStatusAge ages
		// them out; see DESIGN.md "status distribution" for the trade-off.
		r.db.Merge(st.sys, st.net, st.sec)
	case st.got&deltaFrames != 0:
		r.applyDeltas(st)
	default:
		// The transmitter had nothing newer: what is mirrored stands.
		return
	}
	if m.synced && st.top > m.ver {
		r.catchup.Observe(int64(st.top - m.ver))
	}
	*m = mirrorState{ver: st.top, synced: true}
	r.admitted(bits.OnesCount16(uint16(st.got &^ markFrame)))
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

// PullFrom implements the distributed-mode update: ask each passive
// transmitter for what changed since the last pull (a full snapshot
// on the first) and merge the replies record by record. The wizard
// calls this when a user request arrives (§3.5.2), so each pull runs
// on the transmitter's pull session: a kept connection, kept buffers.
// Unreachable transmitters are reported but do not abort the pull. The
// thesis pull (Compat) runs through the same loop and differs in three
// places: pullOne asks without a base, readEpoch takes a reply as
// complete without a mark, and the complete replies are not applied one
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

// pullSession is what the receiver keeps per passive transmitter between
// pulls: the connection (ServePassive answers any number of requests on
// one), every buffer a pull fills, so that a steady pull dials nothing
// and allocates next to nothing, and what is mirrored of the transmitter.
// mu serialises the pulls of one transmitter, request to apply: a
// connection carries one exchange at a time, and the second of two
// concurrent pulls asks from the base the first one reached.
type pullSession struct {
	mu sync.Mutex
	// conn is nil when no connection is kept. Only the holder of mu
	// writes it, and under Receiver.sessMu as well, so Close can reach
	// the connection of a pull in flight.
	conn   net.Conn
	br     *bufio.Reader // over conn
	req    []byte        // the request frame
	source               // the reply, the mirror's version, the lag gauges
}

var (
	errClosed = errors.New("transport: receiver closed")
	// errStale marks a pull that failed because the kept connection had
	// been closed by the peer since the last pull — the transmitter's idle
	// deadline, a restart, a reset — which says nothing about the peer's
	// health now: pullOne redials and asks again.
	errStale = errors.New("transport: kept pull connection is stale")
)

// session returns the pull session of one transmitter address; a new
// one mints the address's lag gauges.
func (r *Receiver) session(addr string) (*pullSession, error) {
	r.sessMu.Lock()
	defer r.sessMu.Unlock()
	if r.closed {
		return nil, errClosed
	}
	s := r.sessions[addr]
	if s == nil {
		s = &pullSession{br: bufio.NewReader(nil), source: source{lag: r.lagFor(addr)}}
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

// pullOne asks one transmitter for the epoch since the locally mirrored
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
	for reused := s.conn != nil; ; reused = false {
		if s.conn == nil {
			if err := r.connect(s, addr, timeout); err != nil {
				return err
			}
		}
		err := r.roundTrip(s, timeout, reused)
		if err == nil {
			break
		}
		r.drop(s)
		if !errors.Is(err, errStale) {
			return err
		}
	}
	if r.Compat {
		union.sys = append(union.sys, s.st.sys...)
		union.net = append(union.net, s.st.net...)
		union.sec = append(union.sec, s.st.sec...)
		return nil
	}
	r.applyEpoch(&s.source)
	return nil
}

// roundTrip sends one request on the session's connection — from the
// version the session mirrors: thesis replies are never applied by
// version, so a thesis request carries no base (0 encodes as the empty
// payload) and every thesis reply is the whole database — and stages the
// complete reply, one epoch, in s.st. On a reused connection, failing to
// send the request, or finding the stream ended or reset before one reply
// byte arrived, is errStale and not counted as torn; everything else
// fails as it would on a fresh connection.
func (r *Receiver) roundTrip(s *pullSession, timeout time.Duration, reused bool) error {
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
	if s.req, err = status.AppendFrame(s.req[:0], status.TypeRequest, status.AppendPullRequest, s.mirror.ver); err != nil {
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
	return r.readEpoch(s.br, &s.source)
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
