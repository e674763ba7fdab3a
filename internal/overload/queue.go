package overload

import (
	"math"
	"net/netip"
	"sync"
	"time"
)

// Item is one queued request datagram. Buf is owned by the queue
// entry (handed off from the receive ring, returned to a pool after
// handling); Enq is the admission timestamp the sojourn measurement
// is built on.
type Item struct {
	Buf  []byte
	Addr netip.AddrPort
	Enq  time.Time
}

// Queue is one bounded ingress queue with a CoDel controller on its
// drain side. The ingest goroutine Pushes, worker goroutines Pop and
// then ask AdmitDequeued whether the item should be served or shed.
// Both drop paths — queue-full eviction and CoDel — shed from the
// front: the oldest request is the one its client is closest to
// giving up on.
//
// Under a disabled gate the same queue runs the pass-through policy:
// Push blocks instead of evicting and AdmitDequeued admits everything,
// so nothing is ever shed and the kernel socket buffer behind the
// blocked ingest loop is the only backpressure — the thesis wizard's
// behaviour (§3.6.1), expressed as a policy rather than a second loop.
type Queue struct {
	gate *Gate
	ch   chan Item

	// CoDel state, guarded by mu: the controller is consulted by every
	// worker draining this queue, and its decisions are inherently
	// serial (each one advances the drop schedule).
	mu            sync.Mutex
	firstAbove    time.Time // when sojourn first exceeded target (zero: it hasn't)
	dropping      bool      // in the dropping state
	dropNext      time.Time // next scheduled drop while dropping
	dropCount     int       // drops this dropping episode (control-law divisor)
	lastDropCount int       // dropCount when the previous episode ended
}

// NewQueue builds one ingress queue under the gate's policy; call once
// per shard. An enabled gate bounds it at MaxQueue. A disabled gate
// makes it one receive batch deep (batch is the caller's datagrams per
// read): room for the ingest loop to read ahead while the previous
// batch is answered, and nothing more to wait in.
func (g *Gate) NewQueue(batch int) *Queue {
	depth := max(batch, 1)
	if g.Enabled() {
		depth = g.cfg.MaxQueue
	}
	return &Queue{gate: g, ch: make(chan Item, depth)}
}

// Push admits an item. Under an enabled gate a full queue evicts from
// the front: the evicted item is returned (hasEvicted true) so the
// caller can answer it with a shed reply, and is counted in
// overload_shed. Under a disabled gate Push blocks until a Pop makes
// room and never evicts. Push must not be called after Close.
func (q *Queue) Push(it Item) (evicted Item, hasEvicted bool) {
	if !q.gate.Enabled() {
		q.ch <- it
		return Item{}, false
	}
	for {
		select {
		case q.ch <- it:
			return Item{}, false
		default:
		}
		// Full: sacrifice the oldest. A drain loop may win the race for
		// it, in which case the retry finds room.
		select {
		case old := <-q.ch:
			q.gate.shed.Inc()
			q.ch <- it // room: this goroutine is the queue's only producer
			return old, true
		default:
		}
	}
}

// Close releases Pop callers; call after the ingest goroutine has
// stopped pushing.
func (q *Queue) Close() { close(q.ch) }

// Pop blocks for the next item; ok is false once the queue is closed
// and drained.
func (q *Queue) Pop() (Item, bool) {
	it, ok := <-q.ch
	return it, ok
}

// TryPop drains without blocking — the workers' batch-fill path.
func (q *Queue) TryPop() (Item, bool) {
	select {
	case it, ok := <-q.ch:
		return it, ok
	default:
		return Item{}, false
	}
}

// Cap reports the queue bound.
func (q *Queue) Cap() int { return cap(q.ch) }

// AdmitDequeued runs the CoDel control law for one popped item and
// reports whether to serve it (true) or shed it (false, counted in
// overload_shed). Admitted sojourns land in the overload_queue_delay
// histogram; shed sojourns do not — the histogram answers "how long
// did requests we served wait", the quantity the bench gates bound.
// A disabled gate admits every item whatever its sojourn (and still
// records it).
//
// The law is CoDel's: shedding starts only after sojourn has exceeded
// Target continuously for Interval, proceeds at interval/sqrt(n)
// spacing while the excess persists, and stops the moment sojourn
// falls back under Target. next-drop state carries across episodes
// (lastDropCount) so an oscillating overload re-enters the schedule
// where it left off instead of relearning it.
func (q *Queue) AdmitDequeued(it Item, now time.Time) bool {
	sojourn := now.Sub(it.Enq)
	g := q.gate

	if g.Enabled() {
		q.mu.Lock()
		drop := q.codel(sojourn, now)
		q.mu.Unlock()
		if drop {
			g.shed.Inc()
			return false
		}
	}
	g.queueDelay.Observe(int64(sojourn))
	return true
}

// codel advances the controller by one dequeue observation; the
// caller holds q.mu.
func (q *Queue) codel(sojourn time.Duration, now time.Time) bool {
	target, interval := q.gate.cfg.Target, q.gate.cfg.Interval

	if sojourn < target {
		// Standing queue gone: leave the dropping state entirely.
		q.firstAbove = time.Time{}
		if q.dropping {
			q.dropping = false
			q.lastDropCount = q.dropCount
		}
		return false
	}

	if q.firstAbove.IsZero() {
		// First observation above target: arm the interval clock and
		// let this one through — a burst may clear on its own.
		q.firstAbove = now.Add(interval)
		return false
	}
	if now.Before(q.firstAbove) {
		return false // above target, but not yet for a full interval
	}

	if !q.dropping {
		q.dropping = true
		// Re-enter the control law near where the last episode ended
		// if it ended recently; otherwise start a fresh schedule.
		if now.Sub(q.dropNext) < interval && q.lastDropCount > 2 {
			q.dropCount = q.lastDropCount - 2
		} else {
			q.dropCount = 0
		}
		q.dropCount++
		q.dropNext = now.Add(controlLaw(interval, q.dropCount))
		return true
	}
	if now.Before(q.dropNext) {
		return false
	}
	q.dropCount++
	q.dropNext = q.dropNext.Add(controlLaw(interval, q.dropCount))
	return true
}

// controlLaw is CoDel's drop spacing: interval / sqrt(count).
func controlLaw(interval time.Duration, count int) time.Duration {
	return time.Duration(float64(interval) / math.Sqrt(float64(count)))
}
