package experiments

// The §5.3.2 massive-download evaluation: the shaper/massd
// cross-check (Fig 5.3) and the three random-versus-smart download
// comparisons (Tables 5.7–5.9 / Figs 5.4–5.6).
//
// The paper sets each server group's bandwidth with rshaper in the
// 0–10 Mbps range and transfers 50000 KB. Here the shaper package
// plays rshaper; transfers are scaled down (both arms identically)
// so the suite runs in seconds, and the network monitor measures the
// same group bandwidths through simnet paths configured to the
// rshaper values — which is what makes "monitor_network_bw > X"
// select the fast group.

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"smartsock"
	"smartsock/internal/loop"
	"smartsock/internal/massd"
	"smartsock/internal/shaper"
	"smartsock/internal/simnet"
	"smartsock/internal/testbed"
)

// bwScale converts a paper-Mbps rshaper setting into the scaled
// byte rate actually enforced on loopback: 1 paper-Mbps = 32 KiB/s of
// real transfer. Both experiment arms scale identically, so the
// throughput *ratios* of Figs 5.4–5.6 are preserved.
const bwScale = 32 * 1024 // bytes/s per paper-Mbps

// startFileServer runs a massd server whose uplink is shaped to the
// given paper-Mbps rate as a member of g; it returns the dial address.
func startFileServer(g *loop.Group, mbpsPaper float64) (string, error) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	shaped, err := shaper.NewListener(raw, mbpsPaper*bwScale)
	if err != nil {
		_ = raw.Close()
		return "", err
	}
	srv := &massd.Server{}
	g.Go("file server "+raw.Addr().String(), func(ctx context.Context) error { return srv.Serve(ctx, shaped) })
	return raw.Addr().String(), nil
}

// fig53 reproduces the rshaper/massd cross-check: 10 sample rates,
// measured massd throughput tracking the configured limit.
func fig53(o Options) (_ *Table, err error) {
	samples := 10
	if o.Quick {
		samples = 4
	}
	ctx, cancel := context.WithCancel(context.Background())
	g, ctx := loop.NewGroup(ctx)
	defer func() { cancel(); err = cmp.Or(g.Wait(), err) }()
	t := &Table{
		ID:      "fig5.3",
		Title:   "Benchmark for rshaper and massd: configured rate vs measured throughput",
		Columns: []string{"run", "shaped rate (KB/s)", "massd throughput (KB/s)", "ratio"},
	}
	for i := 0; i < samples; i++ {
		// The paper draws random rates and sets data = 100×bw so every
		// run lasts the same wall time; mirror that with a deterministic
		// ladder across the 0–10 Mbps range.
		mbpsPaper := 1.0 + 9.0*float64(i)/float64(samples-1)
		rate := mbpsPaper * bwScale
		// Two seconds of traffic per sample so the token-bucket burst
		// (rate/10) inflates the measurement by ≤5%.
		total := int64(2 * rate)
		if o.Quick {
			total /= 4
		}
		addr, err := startFileServer(g, mbpsPaper)
		if err != nil {
			return nil, err
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		stats, err := massd.Download(ctx, []net.Conn{conn}, total, total/16)
		_ = conn.Close()
		if err != nil {
			return nil, fmt.Errorf("fig5.3 run %d: %w", i, err)
		}
		got := stats.ThroughputKBps()
		want := rate / 1024
		t.AddRow(fmt.Sprintf("%d", i+1), f1(want), f1(got), f2(got/want))
	}
	t.Notes = append(t.Notes,
		"paper: 'the bandwidth values set by rshaper were very close to the actual throughput'",
	)
	return t, nil
}

// massdCase describes one of the Tables 5.7–5.9 comparisons.
type massdCase struct {
	id, title  string
	servers    int
	group1Mbps float64 // mimas, telesto, lhost
	group2Mbps float64 // dione, titan-x, pandora-x
	reqMbps    float64 // the monitor_network_bw threshold
	randomSets [][]string
	paperKBps  []float64 // random sets then smart, for the notes
}

var massd1v1 = massdCase{
	id: "table5.7", title: "1 vs 1 massd", servers: 1,
	group1Mbps: 6.72, group2Mbps: 1.33, reqMbps: 6,
	randomSets: [][]string{{"pandora-x"}},
	paperKBps:  []float64{170, 860},
}

var massd2v2 = massdCase{
	id: "table5.8", title: "2 vs 2 massd", servers: 2,
	group1Mbps: 5.01, group2Mbps: 7.67, reqMbps: 7,
	randomSets: [][]string{{"mimas", "telesto"}, {"telesto", "titan-x"}},
	paperKBps:  []float64{660, 795, 994},
}

var massd3v3 = massdCase{
	id: "table5.9", title: "3 vs 3 massd", servers: 3,
	group1Mbps: 5.99, group2Mbps: 2.92, reqMbps: 5,
	randomSets: [][]string{
		{"dione", "titan-x", "pandora-x"},
		{"mimas", "titan-x", "dione"},
		{"telesto", "mimas", "dione"},
	},
	paperKBps: []float64{387, 520, 634, 796},
}

// fileServerGroups are the six machines of the massd experiments.
var fileServerGroups = map[string]string{
	"mimas": "group-1", "telesto": "group-1", "lhost": "group-1",
	"dione": "group-2", "titan-x": "group-2", "pandora-x": "group-2",
}

// massdComparison runs one random-versus-smart download experiment.
func massdComparison(o Options, c massdCase) (_ *Table, err error) {
	// Monitor-visible paths carry the rshaper group bandwidths.
	paths := map[string]*simnet.Path{}
	for group, mbpsPaper := range map[string]float64{
		"group-1": c.group1Mbps,
		"group-2": c.group2Mbps,
	} {
		p, err := testbed.GroupPath(group, mbpsPaper, o.Seed)
		if err != nil {
			return nil, err
		}
		paths[group] = p
	}
	var machines []testbed.Machine
	for name := range fileServerGroups {
		m, ok := testbed.MachineByName(name)
		if !ok {
			return nil, fmt.Errorf("%s: unknown machine %q", c.id, name)
		}
		machines = append(machines, m)
	}
	cluster, err := testbed.Boot(testbed.Options{
		Machines:      machines,
		ProbeInterval: 40 * time.Millisecond,
		GroupPaths:    paths,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	g, ctx := loop.NewGroup(ctx)
	defer func() { cancel(); err = cmp.Or(g.Wait(), cluster.Close(), err) }()
	if err := cluster.WaitSettled(ctx, len(machines)); err != nil {
		return nil, err
	}

	// File servers shaped to their group's rshaper setting.
	addrs := map[string]string{}
	for name, group := range fileServerGroups {
		mbpsPaper := c.group1Mbps
		if group == "group-2" {
			mbpsPaper = c.group2Mbps
		}
		addr, err := startFileServer(g, mbpsPaper)
		if err != nil {
			return nil, err
		}
		addrs[name] = addr
	}

	client, err := smartsock.NewClient(cluster.WizardAddr(), nil)
	if err != nil {
		return nil, err
	}
	requirement := fmt.Sprintf("monitor_network_bw > %g", c.reqMbps)
	smartSet, err := client.RequestServers(ctx, requirement, c.servers)
	if err != nil {
		return nil, fmt.Errorf("%s: smart selection: %w", c.id, err)
	}

	// Paper: 50000 KB by 100 KB; scaled so the slowest arm stays fast.
	total := int64(256 * 1024)
	if o.Quick {
		total = 96 * 1024
	}
	blk := total / 16

	run := func(names []string) (float64, error) {
		var conns []net.Conn
		defer func() {
			for _, cn := range conns {
				_ = cn.Close()
			}
		}()
		for _, name := range names {
			addr, ok := addrs[name]
			if !ok {
				return 0, fmt.Errorf("no file server for %q", name)
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return 0, err
			}
			conns = append(conns, conn)
		}
		stats, err := massd.Download(ctx, conns, total, blk)
		if err != nil {
			return 0, err
		}
		return stats.ThroughputKBps(), nil
	}

	t := &Table{
		ID:      c.id,
		Title:   c.title,
		Columns: []string{"item", "value"},
	}
	t.AddRow("group-1 bandwidth", fmt.Sprintf("%.2f Mbps (mimas, telesto, lhost)", c.group1Mbps))
	t.AddRow("group-2 bandwidth", fmt.Sprintf("%.2f Mbps (dione, titan-x, pandora-x)", c.group2Mbps))
	t.AddRow("server req", requirement)
	t.AddRow("transmission data", fmt.Sprintf("%d KB by %d KB (scaled from 50000/100)", total/1024, blk/1024))

	var measured []float64
	for i, set := range c.randomSets {
		kbps, err := run(set)
		if err != nil {
			return nil, fmt.Errorf("%s: random set %d: %w", c.id, i+1, err)
		}
		measured = append(measured, kbps)
		t.AddRow(fmt.Sprintf("random%d servers", i+1),
			fmt.Sprintf("%s → %.0f KB/s", strings.Join(set, ", "), kbps))
	}
	smartKBps, err := run(smartSet)
	if err != nil {
		return nil, fmt.Errorf("%s: smart arm: %w", c.id, err)
	}
	measured = append(measured, smartKBps)
	t.AddRow("smart servers", fmt.Sprintf("%s → %.0f KB/s", strings.Join(smartSet, ", "), smartKBps))

	paper := make([]string, len(c.paperKBps))
	for i, v := range c.paperKBps {
		paper[i] = fmt.Sprintf("%.0f", v)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper throughputs (KB/s): %s — smart highest, monotone in fast-server count", strings.Join(paper, ", ")),
		fmt.Sprintf("smart/worst-random ratio: measured %.2f, paper %.2f",
			smartKBps/measured[0], c.paperKBps[len(c.paperKBps)-1]/c.paperKBps[0]),
	)
	return t, nil
}
