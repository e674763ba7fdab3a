package experiments

// The Chapter 3 measurement studies: RTT-versus-packet-size sweeps
// (Figs 3.3–3.6), the probe-size bandwidth comparison (Table 3.3 /
// Fig 3.7) and the network-monitor record mesh (Table 3.4).

import (
	"fmt"
	"time"

	"smartsock/internal/bwest"
	"smartsock/internal/netmon"
	"smartsock/internal/simnet"
	"smartsock/internal/store"
	"smartsock/internal/testbed"
)

// rttSweepFig reproduces one of Figs 3.3–3.5: sweep UDP payload 1..max
// step 10 on sagit→suna with the interface MTU set to mtu, then fit
// the two slopes and detect the knee.
func rttSweepFig(o Options, mtu int, id string) (*Table, error) {
	path, err := testbed.CampusPath(mtu, o.Seed)
	if err != nil {
		return nil, err
	}
	maxSize, step := 6000, 10
	if o.Quick {
		step = 50
	}
	pts := bwest.RTTSweep(path, maxSize, step)
	s1, s2 := bwest.FitSlopes(pts, mtu)
	knee := bwest.DetectMTU(pts)

	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("RTT vs UDP payload, sagit→suna, MTU=%d bytes", mtu),
		Columns: []string{"payload(B)", "RTT(us)"},
	}
	// Sample the curve at a readable density.
	for i := 0; i < len(pts); i += len(pts) / 12 {
		p := pts[i]
		t.AddRow(fmt.Sprintf("%d", p.Size), fmt.Sprintf("%.1f", float64(p.RTT.Microseconds())))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("slope below MTU %.4g s/B, above %.4g s/B (paper: break at the MTU; slope drop = 1/Speed_init)", s1, s2),
		fmt.Sprintf("detected knee at %d bytes (interface MTU %d)", knee, mtu),
	)
	if s1 <= s2 {
		t.Notes = append(t.Notes, "WARNING: no slope break detected")
	}
	return t, nil
}

// fig36 reproduces the six-path RTT study of Table 3.2 / Fig 3.6: the
// knee is visible on quiet physical paths, absent on loopback, and
// shadowed by WAN noise.
func fig36(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig3.6",
		Title:   "RTT sweeps on the 6 sample paths of Table 3.2",
		Columns: []string{"path", "ping RTT", "knee(B)", "slope<MTU(s/B)", "slope>MTU(s/B)", "verdict"},
	}
	maxSize, step := 6000, 10
	if o.Quick {
		step = 50
	}
	type expect struct {
		index   string
		visible bool // does the thesis see the threshold here?
	}
	for _, e := range []expect{
		{"a", false}, {"b", false}, // WAN: shadowed (observation 4)
		{"c", true}, {"d", true}, {"e", true}, // quiet LANs: visible
		{"f", false}, // loopback: no threshold at all (observation 1)
	} {
		path, err := testbed.Table32Path(e.index, o.Seed)
		if err != nil {
			return nil, err
		}
		pts := bwest.RTTSweep(path, maxSize, step)
		s1, s2 := bwest.FitSlopes(pts, 1500)
		knee := bwest.DetectMTU(pts)
		verdict := "threshold visible"
		if e.index == "f" {
			verdict = "no threshold (virtual interface)"
		} else if !e.visible {
			verdict = "threshold shadowed by RTT variance"
		}
		t.AddRow(path.Name(),
			path.BaseRTT().Round(10*time.Microsecond).String(),
			fmt.Sprintf("%d", knee),
			fmt.Sprintf("%.3g", s1), fmt.Sprintf("%.3g", s2),
			verdict)
	}
	return t, nil
}

// table33 reproduces Table 3.3 / Fig 3.7: bandwidth estimates from 7
// probe-size groups against pipechar and pathload on the ≈95 Mbps
// campus path.
func table33(o Options) (*Table, error) {
	path, err := testbed.CampusPath(1500, o.Seed)
	if err != nil {
		return nil, err
	}
	runs := 10
	if o.Quick {
		runs = 4
	}
	groups := []struct{ s1, s2 int }{
		{100, 500}, {500, 1000}, {100, 1000}, // both below the MTU
		{2000, 4000}, {4000, 6000}, {2000, 6000}, // above, mixed fragment counts
		{1600, 2900}, // the optimal pair
	}
	t := &Table{
		ID:      "table3.3",
		Title:   "Bandwidth measurements using various packet size (Mbps)",
		Columns: []string{"packet size(B)", "min bw", "max bw", "avg bw"},
	}
	for _, g := range groups {
		st, err := bwest.Estimate(path, bwest.StreamConfig{S1: g.s1, S2: g.s2, Runs: runs})
		if err != nil {
			return nil, fmt.Errorf("group %d~%d: %w", g.s1, g.s2, err)
		}
		t.AddRow(fmt.Sprintf("%d~%d", g.s1, g.s2), mbps(st.Min), mbps(st.Max), mbps(st.Avg))
	}
	pc, err := bwest.Pipechar{Pairs: 4 * runs}.Estimate(path)
	if err != nil {
		return nil, err
	}
	t.AddRow("pipechar", "", "", mbps(pc))
	lo, hi, err := bwest.Pathload{Lo: 1e6, Hi: 1e9}.Estimate(path)
	if err != nil {
		return nil, err
	}
	t.AddRow("pathload", mbps(lo), mbps(hi), "")
	t.Notes = append(t.Notes,
		fmt.Sprintf("true available bandwidth (harmonic across hops): %s Mbps", mbps(path.EffectiveBandwidth())),
		"paper shape: sub-MTU groups ≈20 Mbps (Speed_init effect, Eq. 3.7); supra-MTU ≈80–92; 1600~2900 best",
	)
	return t, nil
}

// table34 reproduces Table 3.4: the (delay, bandwidth) record tables
// of a 3-monitor mesh, each monitor probing the other two.
func table34(o Options) (*Table, error) {
	monitors := []string{"netmon-1", "netmon-2", "netmon-3"}
	// A triangle of unequal links so the table is informative.
	linkCfg := map[string]struct {
		capacity float64
		prop     time.Duration
		util     float64
	}{
		"netmon-1→netmon-2": {100e6, 200 * time.Microsecond, 0.05},
		"netmon-1→netmon-3": {10e6, 3 * time.Millisecond, 0.2},
		"netmon-2→netmon-1": {100e6, 200 * time.Microsecond, 0.05},
		"netmon-2→netmon-3": {45e6, 2 * time.Millisecond, 0.1},
		"netmon-3→netmon-1": {10e6, 3 * time.Millisecond, 0.2},
		"netmon-3→netmon-2": {45e6, 2 * time.Millisecond, 0.1},
	}
	db := store.New()
	runs := 3
	if o.Quick {
		runs = 2
	}
	for _, from := range monitors {
		var peers []netmon.Peer
		for _, to := range monitors {
			if to == from {
				continue
			}
			cfg := linkCfg[from+"→"+to]
			path, err := simnet.New(simnet.Config{
				Name: from + "-" + to, MTU: 1500, SpeedInit: testbed.SpeedInit,
				Jitter: 0.02, Seed: o.Seed,
				Hops: []simnet.Hop{{Capacity: cfg.capacity, PropDelay: cfg.prop, Utilization: cfg.util}},
			})
			if err != nil {
				return nil, err
			}
			peers = append(peers, netmon.Peer{Name: to, Prober: path, MTU: 1500})
		}
		nm, err := netmon.New(netmon.Config{Name: from, Peers: peers, DB: db, BandwidthRuns: runs})
		if err != nil {
			return nil, err
		}
		nm.ProbeAll(nil)
	}
	t := &Table{
		ID:      "table3.4",
		Title:   "Sample network monitor records: (delay, bandwidth) to each neighbour",
		Columns: []string{"monitor", "peer", "delay", "bandwidth(Mbps)"},
	}
	for _, r := range db.Net() {
		t.AddRow(r.Metric.From, r.Metric.To,
			r.Metric.Delay.Round(10*time.Microsecond).String(),
			mbps(r.Metric.Bandwidth))
	}
	t.Notes = append(t.Notes, "each monitor holds (delay,bw) pairs for every other group, as in Fig 3.8")
	return t, nil
}
