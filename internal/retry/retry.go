// Package retry provides the bounded exponential backoff with jitter
// that every reconnecting component of the pipeline shares: the
// transmitter redialing its receiver, a probe re-registering with its
// monitor, the client resending a lost wizard request. Backoff
// prevents a dead peer from being hammered at the full report rate;
// jitter prevents the thundering herd when the peer comes back and
// every waiter fires at once.
package retry

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff produces successive wait times: Base, 2×Base, 4×Base, …
// capped at Max, each perturbed by ±Jitter. The zero value is not
// usable; set at least Base. Backoff is safe for concurrent use,
// though its natural life is owned by one retry loop.
type Backoff struct {
	// Base is the first wait.
	Base time.Duration
	// Max caps the exponential growth. Defaults to 16×Base.
	Max time.Duration
	// Jitter is the relative perturbation applied to each wait, e.g.
	// 0.2 for ±20%. Defaults to 0.2; negative disables jitter.
	Jitter float64
	// Rand supplies the jitter draws; nil uses the global source. Tests
	// inject a seeded func for reproducible schedules.
	Rand func() float64
	// Metric, when set, counts every wait handed out — the owning
	// component's retry rate (e.g. the transmitter's redial counter, an
	// *obs.Counter: obs runs under internal/loop, which imports this
	// package, so the field names only the method).
	Metric interface{ Inc() }

	mu      sync.Mutex
	attempt int
}

// Next returns the wait before the following retry and advances the
// schedule.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	attempt := b.attempt
	b.attempt++
	b.mu.Unlock()
	if b.Metric != nil {
		b.Metric.Inc()
	}

	base := b.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 16 * base
	}
	d := base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= max {
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	jitter := b.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 {
		draw := rand.Float64
		if b.Rand != nil {
			draw = b.Rand
		}
		// Uniform in [−jitter, +jitter] around d.
		d += time.Duration((draw()*2 - 1) * jitter * float64(d))
		if d < base/2 {
			d = base / 2
		}
	}
	return d
}

// NextAtLeast advances the schedule like Next but never returns less
// than floor — the hook for honoring a server-supplied retry-after
// hint (proto.RetryAfter on an overloaded wizard reply). The
// exponential schedule still advances underneath, so a client that
// keeps hitting an overloaded server backs off past the hint rather
// than retrying at a fixed rate forever.
func (b *Backoff) NextAtLeast(floor time.Duration) time.Duration {
	d := b.Next()
	if d < floor {
		return floor
	}
	return d
}

// Reset restarts the schedule after a success.
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.attempt = 0
	b.mu.Unlock()
}
