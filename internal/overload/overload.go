// Package overload is the admission-control plane in front of the
// wizard's request loop — the deliberate overload story for the one
// component every client in the fleet hits before opening a
// connection. A brokered compute service saturates at the broker (the
// NEOS experience): past capacity, queues grow without bound, latency
// explodes for everyone, and client retries amplify the storm. This
// package bounds that failure into three mechanisms, all stdlib-only:
//
//   - Bounded per-shard ingress queues (Queue) sit between the
//     netbatch receive rings and the wizard workers. Every datagram is
//     timestamped at enqueue, so the time a request spent waiting — its
//     sojourn — is a measured quantity, not an inference. A full queue
//     drops from the front: the oldest request is the one whose client
//     has waited longest and is closest to timing out anyway, so it is
//     the cheapest to sacrifice (and the freshly arrived datagram is
//     the one most likely to still be answered in time).
//
//   - A CoDel-style controller (AdmitDequeued) sheds when queues are
//     persistently, not momentarily, deep: only once the sojourn time
//     has stayed above Target for a full Interval does it begin
//     dropping from the front, at the classic interval/sqrt(n) control
//     law, and it stops the moment sojourn falls back under Target. A
//     burst that clears within the interval is absorbed untouched.
//     Shed requests are answered with a cheap "overloaded,
//     retry-after" error (proto.OverloadedErr) so clients back off via
//     their jittered retry schedule instead of hammering blind.
//
//   - A per-source token-bucket rate limiter (AllowSource) over an LRU
//     of recent sources fends off a single runaway client without
//     punishing the fleet: each source address earns Rate tokens per
//     second up to a burst of 2×Rate (at least 8), and a source that
//     exhausts its bucket is rejected before its datagrams ever
//     occupy queue space.
//
// Priority classes keep the control plane honest: status-distribution
// traffic (transport pull/delta frames) must never starve behind a
// request storm, so the transport receiver registers every frame as a
// bypass admission — counted in overload_bypass, never queued, never
// shed. The invariant "overload_bypass == transport frames received"
// is reconciled by the chaos observability suite.
//
// "Unprotected" is a policy of this package, not a second serve path
// in the wizard: a disabled gate (MaxQueue 0) hands out pass-through
// queues (see Queue), and the wizard runs the same ingest → queue →
// drain loops either way without asking which policy it got.
package overload

import (
	"net/netip"
	"time"

	"smartsock/internal/obs"
)

// Defaults for Config fields left zero.
const (
	// DefaultTarget is the CoDel sojourn-time target: queue delay the
	// plane considers acceptable standing behaviour. 5ms is large
	// against the wizard's sub-microsecond cached answer path (so the
	// controller never fires on healthy load) and small against the
	// client's 50ms-base retry backoff (so a shed reply arrives well
	// before the client would have resent anyway).
	DefaultTarget = 5 * time.Millisecond
	// DefaultInterval is the CoDel observation window: sojourn must
	// exceed Target continuously for this long before shedding starts.
	DefaultInterval = 100 * time.Millisecond
	// DefaultRetryAfter is the backoff hint carried in shed replies
	// when Config.RetryAfter is zero — one CoDel interval, the soonest
	// the controller could have changed its mind.
	DefaultRetryAfter = DefaultInterval
	// DefaultSourceLRU is how many distinct source addresses the rate
	// limiter tracks when Config.SourceLRU is zero.
	DefaultSourceLRU = 4096
)

// Config parameterises a Gate.
type Config struct {
	// MaxQueue bounds each ingress queue, in datagrams. 0 disables the
	// gate: its queues run the pass-through policy (Push blocks, nothing
	// is shed, no source is rate-limited) and the kernel socket buffer
	// is the only backpressure.
	MaxQueue int
	// Target is the CoDel sojourn-time target; 0 means DefaultTarget.
	Target time.Duration
	// Interval is the CoDel observation window; 0 means DefaultInterval.
	Interval time.Duration
	// RetryAfter is the backoff hint carried in shed replies; 0 means
	// DefaultRetryAfter.
	RetryAfter time.Duration
	// Rate is the per-source admission rate in requests per second.
	// 0 disables per-source limiting (the CoDel shedder still runs); a
	// disabled gate ignores it. The token bucket holds 2×Rate (and at
	// least 8), so a well-behaved client's request bursts pass
	// untouched.
	Rate float64
	// SourceLRU caps how many sources the limiter tracks; 0 means
	// DefaultSourceLRU. Evicting a source forgets its debt, which is
	// safe: a returning source restarts with a full bucket, and a
	// runaway source stays hot in the LRU by definition.
	SourceLRU int
	// Obs receives the plane's metrics (overload_shed,
	// overload_ratelimited, overload_bypass counters and the
	// overload_queue_delay histogram of admitted-request sojourns);
	// nil detaches them.
	Obs *obs.Registry
}

// Gate is one admission-control plane: a shared rate limiter, the
// CoDel parameters its queues run under, and the obs counters every
// decision lands in. One gate is shared by all of a wizard's shards
// (and by the transport receiver, for bypass accounting), so its
// counters describe the whole process.
type Gate struct {
	cfg Config
	lim *limiter

	shed        *obs.Counter   // overload_shed: requests dropped by CoDel or queue bound
	ratelimited *obs.Counter   // overload_ratelimited: requests rejected per-source
	bypass      *obs.Counter   // overload_bypass: priority traffic admitted unconditionally
	queueDelay  *obs.Histogram // overload_queue_delay: sojourn of admitted requests, ns
}

// New builds a gate, applying defaults and registering its metrics
// (detached when cfg.Obs is nil). Call New even when MaxQueue is 0 so
// the metrics exist — a disabled gate still reports its zeros.
func New(cfg Config) *Gate {
	if cfg.Target <= 0 {
		cfg.Target = DefaultTarget
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = cfg.Interval
	}
	if cfg.SourceLRU <= 0 {
		cfg.SourceLRU = DefaultSourceLRU
	}
	g := &Gate{
		cfg:         cfg,
		shed:        cfg.Obs.Counter("overload_shed"),
		ratelimited: cfg.Obs.Counter("overload_ratelimited"),
		bypass:      cfg.Obs.Counter("overload_bypass"),
		queueDelay:  cfg.Obs.Histogram("overload_queue_delay", obs.QueueDelayBuckets),
	}
	if cfg.Rate > 0 && g.Enabled() {
		g.lim = newLimiter(cfg.Rate, float64(max(int(2*cfg.Rate), 8)), cfg.SourceLRU)
	}
	return g
}

// Enabled reports whether the gate sheds and rate-limits. A nil gate
// and a MaxQueue of 0 are both disabled: the pass-through policy,
// "queue one batch, block the reader, shed nothing".
func (g *Gate) Enabled() bool { return g != nil && g.cfg.MaxQueue > 0 }

// Target returns the CoDel sojourn target the gate's queues run under.
func (g *Gate) Target() time.Duration {
	if g == nil {
		return DefaultTarget
	}
	return g.cfg.Target
}

// RetryAfter returns the backoff hint shed replies should carry.
func (g *Gate) RetryAfter() time.Duration {
	if g == nil {
		return DefaultRetryAfter
	}
	return g.cfg.RetryAfter
}

// AllowSource runs the per-source token bucket for one request
// datagram from src. False means the source has exhausted its rate
// and the request must be shed (counted in overload_ratelimited).
// With no limiter configured every source is allowed.
func (g *Gate) AllowSource(src netip.AddrPort, now time.Time) bool {
	if g == nil || g.lim == nil {
		return true
	}
	if g.lim.allow(src, now) {
		return true
	}
	g.ratelimited.Inc()
	return false
}

// Bypass records n priority admissions — traffic (transport pull and
// delta frames, status distribution) that is never queued and never
// shed, whatever the load. The counter is the auditable half of the
// priority invariant: it must reconcile against the transport
// receiver's own frame counts.
func (g *Gate) Bypass(n int) {
	if g == nil {
		return
	}
	g.bypass.Add(uint64(n))
}

// QueueDelay exposes the admitted-sojourn histogram
// (overload_queue_delay) for benches and in-process dashboards that
// hold the gate rather than the registry.
func (g *Gate) QueueDelay() *obs.Histogram {
	if g == nil {
		return nil
	}
	return g.queueDelay
}

// Shed reports counters for tests and in-process dashboards.
func (g *Gate) Shed() uint64 {
	if g == nil {
		return 0
	}
	return g.shed.Value()
}

// RateLimited reports how many requests the per-source limiter
// rejected.
func (g *Gate) RateLimited() uint64 {
	if g == nil {
		return 0
	}
	return g.ratelimited.Value()
}
