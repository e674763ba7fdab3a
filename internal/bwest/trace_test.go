package bwest

import (
	"testing"
	"time"

	"smartsock/internal/simnet"
)

// tracePath builds a 4-hop path with distinct link capacities.
func tracePath(t *testing.T, jitter float64) *simnet.Path {
	t.Helper()
	p, err := simnet.New(simnet.Config{
		Name: "trace", MTU: 1500, SpeedInit: 25e6,
		SysOverhead: 30 * time.Microsecond, Jitter: jitter, Seed: 3,
		Hops: []simnet.Hop{
			{Capacity: 100e6, PropDelay: 20 * time.Microsecond, ProcDelay: 2 * time.Microsecond},
			{Capacity: 1e9, PropDelay: 50 * time.Microsecond, ProcDelay: 3 * time.Microsecond},
			{Capacity: 45e6, PropDelay: 200 * time.Microsecond, ProcDelay: 3 * time.Microsecond},
			{Capacity: 622e6, PropDelay: 100 * time.Microsecond, ProcDelay: 3 * time.Microsecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTraceIdentifiesPerLinkBandwidth(t *testing.T) {
	p := tracePath(t, 0) // noise-free: every link resolves exactly
	reports, err := Trace(p, TraceConfig{S1: 1600, S2: 2900})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("got %d reports", len(reports))
	}
	want := []float64{100e6, 1e9, 45e6, 622e6}
	for i, r := range reports {
		if r.Fluctuation {
			t.Errorf("hop %d fluctuated on a noise-free path", i)
			continue
		}
		if rel := (r.LinkBandwidth - want[i]) / want[i]; rel > 0.15 || rel < -0.15 {
			t.Errorf("hop %d bandwidth = %.1f Mbps, want %.1f", i, r.LinkBandwidth/1e6, want[i]/1e6)
		}
	}
	// Cumulative RTT must grow with hop count.
	for i := 1; i < len(reports); i++ {
		if reports[i].MinRTT <= reports[i-1].MinRTT {
			t.Errorf("hop %d RTT %v not beyond hop %d's %v",
				i, reports[i].MinRTT, i-1, reports[i-1].MinRTT)
		}
	}
}

func TestTraceMarksFluctuationsUnderNoise(t *testing.T) {
	// Appendix A's real trace is littered with "bad fluctuation" on
	// the WAN hops; heavy jitter must produce the same marker rather
	// than negative bandwidths.
	p := tracePath(t, 0.5)
	reports, err := Trace(p, TraceConfig{S1: 1600, S2: 2900, ProbesPerHop: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.Fluctuation && r.LinkBandwidth <= 0 {
			t.Errorf("hop %d: non-fluctuating report with bandwidth %v", r.Hop, r.LinkBandwidth)
		}
	}
}

func TestTraceValidation(t *testing.T) {
	p := tracePath(t, 0)
	if _, err := Trace(p, TraceConfig{S1: 500, S2: 100}); err == nil {
		t.Error("accepted S2 < S1")
	}
	if _, err := p.ProbeHop(99, 100); err == nil {
		t.Error("ProbeHop accepted out-of-range hop")
	}
}
