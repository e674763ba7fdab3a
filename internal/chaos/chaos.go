// Package chaos is a deterministic, seedable fault-injection layer
// for the selection pipeline. The thesis evaluates the smart socket
// only on a healthy LAN plus two stable WAN paths; this package
// supplies the unhealthy conditions a production selection layer must
// absorb — lossy UDP report paths, duplicated and reordered
// datagrams, stalled or reset transmitter links, partitioned hosts —
// so tests can drive the probe→monitor→transmitter→wizard→client
// chain through failure and recovery on real sockets.
//
// Determinism contract: every fault decision is drawn from one
// math/rand stream seeded by Config.Seed, so a fixed seed yields a
// fixed *sequence* of per-packet fates. When several goroutines share
// an injector the interleaving of draws follows goroutine scheduling,
// so cross-goroutine runs are statistically, not bitwise, identical;
// tests that need exact replay give each traffic source its own
// injector. CI pins CHAOS_SEED (see SeedFromEnv) so a failure
// reproduces locally with the same fault schedule.
package chaos

import (
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config sets the fault rates of an injector. All rates are
// probabilities in [0,1] applied independently per packet.
type Config struct {
	// Seed makes the fault schedule reproducible.
	Seed int64
	// DropRate is the probability a packet is silently discarded.
	DropRate float64
	// DupRate is the probability a packet is delivered twice.
	DupRate float64
	// DelayRate is the probability a packet is held for a uniform
	// random time in (0, MaxDelay] before delivery.
	DelayRate float64
	// MaxDelay bounds injected per-packet delay. Defaults to 20 ms
	// when a DelayRate is set.
	MaxDelay time.Duration
	// ReorderRate is the probability a packet is held back and
	// delivered after the next packet on the same connection.
	ReorderRate float64
	// Timeout is the RTT a lost probe measures (the prober's timeout):
	// the value simnet paths report for dropped probes. Defaults to 2 s.
	Timeout time.Duration
}

// Fate is the decided treatment of one packet.
type Fate struct {
	Drop    bool
	Dup     bool
	Delay   time.Duration
	Reorder bool
}

// Injector draws per-packet fates from a seeded stream and keeps
// counters so tests can assert the faults actually happened.
type Injector struct {
	mu  sync.Mutex
	rng *rand.Rand
	cfg Config

	partitioned atomic.Bool

	passed  atomic.Uint64
	dropped atomic.Uint64

	// sleep applies injected delays and stalls; swapped in tests to
	// run fault schedules in virtual time.
	sleep func(time.Duration)

	streamMu sync.Mutex
	streams  []*StreamConn // every stream wrapped, for ResetAllStreams
}

// New builds an injector from the config.
func New(cfg Config) *Injector {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 20 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	return &Injector{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		sleep: time.Sleep,
	}
}

// SeedFromEnv reads the CHAOS_SEED environment variable, falling back
// to def when unset or malformed. CI exports a fixed value so chaos
// runs are reproducible; local runs may override it to explore other
// schedules.
func SeedFromEnv(def int64) int64 {
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// Partition makes the injector drop everything until lifted —
// a crashed link or an unplugged host, as opposed to random loss.
func (in *Injector) Partition(on bool) { in.partitioned.Store(on) }

// Next draws the fate of one packet. A partitioned injector drops
// unconditionally without consuming randomness, so lifting a
// partition resumes the schedule where it stopped.
func (in *Injector) Next() Fate {
	if in.partitioned.Load() {
		in.dropped.Add(1)
		return Fate{Drop: true}
	}
	in.mu.Lock()
	f := Fate{}
	if in.cfg.DropRate > 0 && in.rng.Float64() < in.cfg.DropRate {
		f.Drop = true
	}
	if in.cfg.DupRate > 0 && in.rng.Float64() < in.cfg.DupRate {
		f.Dup = true
	}
	if in.cfg.DelayRate > 0 && in.rng.Float64() < in.cfg.DelayRate {
		f.Delay = time.Duration(in.rng.Float64() * float64(in.cfg.MaxDelay))
		if f.Delay <= 0 {
			f.Delay = time.Millisecond
		}
	}
	if in.cfg.ReorderRate > 0 && in.rng.Float64() < in.cfg.ReorderRate {
		f.Reorder = true
	}
	in.mu.Unlock()
	if f.Drop {
		in.dropped.Add(1)
	} else {
		in.passed.Add(1)
	}
	return f
}

// Packet implements the simnet fault hook: the fate of one simulated
// probe packet. A dropped probe is reported as lost (the caller
// substitutes its timeout); a delayed one carries the extra queueing.
func (in *Injector) Packet() (drop bool, extra time.Duration) {
	f := in.Next()
	return f.Drop, f.Delay
}

// Timeout is the RTT a lost probe measures before giving up.
func (in *Injector) Timeout() time.Duration { return in.cfg.Timeout }

// Passed reports packets delivered (including duplicates' originals).
func (in *Injector) Passed() uint64 { return in.passed.Load() }

// Dropped reports packets discarded (random loss plus partition).
func (in *Injector) Dropped() uint64 { return in.dropped.Load() }
