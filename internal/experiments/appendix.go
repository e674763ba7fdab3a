package experiments

// Appendix A: pipechar's hop-by-hop traces from sagit to the remote
// hosts. The original listings walk 23 WAN hops with per-link
// bandwidth estimates and frequent "bad fluctuation" markers; this
// reproduction traces a condensed version of the same route (campus →
// SingAREN → trans-Pacific backbone → campus) with the TTL-limited
// probing mode of the bwest package.

import (
	"fmt"
	"time"

	"smartsock/internal/bwest"
	"smartsock/internal/simnet"
	"smartsock/internal/testbed"
)

// cmuiRoute is the sagit→cmui route of Appendix A.1, condensed to its
// eight distinct segments.
func cmuiRoute(seed int64) (*simnet.Path, []string, error) {
	names := []string{
		"gw-a-15-810.comp.nus.edu.sg",
		"core-au-vlan51.priv.nus.edu.sg",
		"border-pgp-m1.nus.edu.sg",
		"ge3-12.pgp-dr1.singaren.net.sg",
		"pos1-0.seattle-cr1.singaren.net.sg",
		"kscyng-dnvrng.abilene.ucaid.edu",
		"CORE0-VL501.GW.CMU.NET",
		"cmui",
	}
	p, err := simnet.New(simnet.Config{
		Name: "sagit-cmui-trace", MTU: 1500, SpeedInit: testbed.SpeedInit,
		SysOverhead: 40 * time.Microsecond, Jitter: 0.12, Seed: seed,
		Hops: []simnet.Hop{
			{Capacity: 100e6, PropDelay: 200 * time.Microsecond, ProcDelay: 3 * time.Microsecond},                  // campus edge (100BT, the Appendix's "96.644 Mbps 100BT")
			{Capacity: 1e9, PropDelay: 300 * time.Microsecond, ProcDelay: 4 * time.Microsecond},                    // campus core
			{Capacity: 155e6, PropDelay: 2 * time.Millisecond, ProcDelay: 5 * time.Microsecond, Utilization: 0.2},  // border STM-1
			{Capacity: 622e6, PropDelay: 15 * time.Millisecond, ProcDelay: 8 * time.Microsecond, Utilization: 0.3}, // SingAREN
			{Capacity: 2.5e9, PropDelay: 90 * time.Millisecond, ProcDelay: 8 * time.Microsecond, Utilization: 0.3}, // trans-Pacific
			{Capacity: 10e9, PropDelay: 25 * time.Millisecond, ProcDelay: 8 * time.Microsecond, Utilization: 0.2},  // Abilene backbone
			{Capacity: 1e9, PropDelay: 2 * time.Millisecond, ProcDelay: 5 * time.Microsecond, Utilization: 0.1},    // CMU gateway
			{Capacity: 100e6, PropDelay: 300 * time.Microsecond, ProcDelay: 3 * time.Microsecond},                  // cmui host link
		},
	})
	return p, names, err
}

// appendixA regenerates the hop-by-hop pipechar trace.
func appendixA(o Options) (*Table, error) {
	path, names, err := cmuiRoute(o.Seed)
	if err != nil {
		return nil, err
	}
	probes := 10
	if o.Quick {
		probes = 4
	}
	reports, err := bwest.Trace(path, bwest.TraceConfig{S1: 1600, S2: 2900, ProbesPerHop: probes})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "appendixA",
		Title:   "Pipechar hop-by-hop trace, sagit → cmui (condensed route)",
		Columns: []string{"hop", "router", "min RTT", "avg RTT", "link estimate"},
	}
	flukes := 0
	for i, r := range reports {
		link := fmt.Sprintf("%.3f Mbps", r.LinkBandwidth/1e6)
		if r.Fluctuation {
			link = "bad fluctuation"
			flukes++
		}
		t.AddRow(fmt.Sprintf("%d", i+1), names[i],
			r.MinRTT.Round(10*time.Microsecond).String(),
			r.AvgRTT.Round(10*time.Microsecond).String(),
			link)
	}
	t.Notes = append(t.Notes,
		"Appendix A.1 shape: campus hops in single-digit ms resolve cleanly (first link ≈96.6 Mbps 100BT); WAN hops sit at 300–600 ms and fluctuate",
		fmt.Sprintf("%d of %d hops marked 'bad fluctuation' (the original listing marks 7 of 23)", flukes, len(reports)),
	)
	return t, nil
}
