package bwest

import (
	"fmt"
	"math"
	"time"
)

// Hop-by-hop tracing, the pipechar mode shown in Appendix A: TTL-
// limited probes expire at successive routers, each hop's RTT slope
// gives the *cumulative* inverse bandwidth to that hop, and the
// difference between consecutive slopes isolates each link. Noise on
// far hops routinely makes the difference negative — the real tool
// prints "bad fluctuation" there, and so does this one.

// HopProber measures TTL-limited round-trip times: the time until the
// ICMP time-exceeded reply from the hop'th router arrives.
type HopProber interface {
	ProbeHop(hop, payload int) (time.Duration, error)
	NumHops() int
}

// HopReport is one line of a trace (one router).
type HopReport struct {
	// Hop index, 0-based from the sender.
	Hop int
	// MinRTT and AvgRTT of the small probe, the Appendix A columns.
	MinRTT, AvgRTT time.Duration
	// LinkBandwidth estimates this hop's link in bits/s; 0 when the
	// measurement fluctuated.
	LinkBandwidth float64
	// Fluctuation marks hops whose slope difference came out
	// non-positive ("32 bad fluctuation" in pipechar's output).
	Fluctuation bool
}

// TraceConfig parameterises a hop-by-hop trace.
type TraceConfig struct {
	// S1 and S2 are the two probe sizes; OptimalSizes defaults apply
	// when zero.
	S1, S2 int
	// ProbesPerHop per size; the min filters queueing. Defaults to 8.
	ProbesPerHop int
}

// Trace probes every hop and derives per-link bandwidth, Appendix A
// style.
func Trace(p HopProber, cfg TraceConfig) ([]HopReport, error) {
	if cfg.S1 <= 0 || cfg.S2 <= 0 {
		cfg.S1, cfg.S2 = OptimalSizes(0)
	}
	if cfg.S2 <= cfg.S1 {
		return nil, fmt.Errorf("bwest: trace needs S2 > S1, got %d/%d", cfg.S1, cfg.S2)
	}
	if cfg.ProbesPerHop <= 0 {
		cfg.ProbesPerHop = 8
	}
	n := p.NumHops()
	if n == 0 {
		return nil, fmt.Errorf("bwest: path has no hops to trace")
	}
	reports := make([]HopReport, n)
	prevSlope := 0.0
	for hop := 0; hop < n; hop++ {
		min1, avg1, err := hopStats(p, hop, cfg.S1, cfg.ProbesPerHop)
		if err != nil {
			return nil, err
		}
		min2, _, err := hopStats(p, hop, cfg.S2, cfg.ProbesPerHop)
		if err != nil {
			return nil, err
		}
		slope := (min2 - min1).Seconds() / float64(cfg.S2-cfg.S1) // s per byte, cumulative
		r := HopReport{Hop: hop, MinRTT: min1, AvgRTT: avg1}
		delta := slope - prevSlope
		if delta <= 0 {
			r.Fluctuation = true
		} else {
			r.LinkBandwidth = 8 / delta // bytes/s → bits/s
		}
		if slope > prevSlope {
			prevSlope = slope
		}
		reports[hop] = r
	}
	return reports, nil
}

func hopStats(p HopProber, hop, size, k int) (min, avg time.Duration, err error) {
	min = time.Duration(math.MaxInt64)
	var sum time.Duration
	for i := 0; i < k; i++ {
		d, err := p.ProbeHop(hop, size)
		if err != nil {
			return 0, 0, err
		}
		if d < min {
			min = d
		}
		sum += d
	}
	return min, sum / time.Duration(k), nil
}
