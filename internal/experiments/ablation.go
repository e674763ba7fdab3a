package experiments

// Ablations for the design choices DESIGN.md calls out. These go
// beyond the thesis's own tables: each one varies a single design
// decision and shows what it buys, using the same substrates as the
// paper experiments.

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"smartsock/internal/bwest"
	"smartsock/internal/loop"
	"smartsock/internal/monitor"
	"smartsock/internal/probe"
	"smartsock/internal/simnet"
	"smartsock/internal/status"
	"smartsock/internal/store"
	"smartsock/internal/sysinfo"
	"smartsock/internal/testbed"
	"smartsock/internal/transport"
)

// ablationProbeSize generalises Table 3.3: the probe-size rules of
// §3.3.2 evaluated on three path regimes, reporting each pair's
// relative error against ground truth. It shows *when* the rules
// matter: the sub-MTU penalty is constant, the fragment-count rule
// matters most on loaded paths, and no pair survives WAN noise.
func ablationProbeSize(o Options) (*Table, error) {
	runs := 6
	if o.Quick {
		runs = 3
	}
	mkPath := func(name string, util, jitter float64, prop time.Duration) (*simnet.Path, error) {
		return simnet.New(simnet.Config{
			Name: name, MTU: 1500, SpeedInit: testbed.SpeedInit,
			SysOverhead: 40 * time.Microsecond, Jitter: jitter, Seed: o.Seed,
			Hops: []simnet.Hop{
				{Capacity: 100e6, PropDelay: prop, ProcDelay: 3 * time.Microsecond, Utilization: util},
				{Capacity: 1e9, PropDelay: prop, ProcDelay: 3 * time.Microsecond},
			},
		})
	}
	paths := []struct {
		label  string
		util   float64
		jitter float64
		prop   time.Duration
	}{
		{"quiet LAN", 0, 0.015, 15 * time.Microsecond},
		{"loaded LAN (40%)", 0.4, 0.08, 15 * time.Microsecond},
		{"WAN (30 ms, noisy)", 0.3, 0.25, 15 * time.Millisecond},
	}
	pairs := []struct{ s1, s2 int }{
		{100, 500},   // both below MTU
		{1000, 2000}, // straddling the MTU
		{2000, 6000}, // unequal fragment counts
		{1600, 2900}, // thesis-optimal
	}
	t := &Table{
		ID:      "ablation.probesize",
		Title:   "Probe-size rules (§3.3.2) across path regimes: signed error vs truth",
		Columns: []string{"path", "pair(B)", "estimate(Mbps)", "truth(Mbps)", "error"},
	}
	for _, pc := range paths {
		path, err := mkPath(pc.label, pc.util, pc.jitter, pc.prop)
		if err != nil {
			return nil, err
		}
		truth := path.EffectiveBandwidth()
		for _, pr := range pairs {
			cell := "failed"
			st, err := bwest.Estimate(path, bwest.StreamConfig{S1: pr.s1, S2: pr.s2, Runs: runs})
			est := ""
			if err == nil {
				est = mbps(st.Avg)
				cell = pct(st.Avg-truth, truth)
			}
			t.AddRow(pc.label, fmt.Sprintf("%d~%d", pr.s1, pr.s2), est, mbps(truth), cell)
		}
	}
	t.Notes = append(t.Notes,
		"sub-MTU pairs sit ≈−78% everywhere (Speed_init); the optimal pair is the only one within a few percent on LANs",
		"on the noisy WAN every pair degrades: single-ended probing needs the min-filter plus a quiet path (§3.3.1)",
	)
	return t, nil
}

// ablationEncoding quantifies the §3.2.1-vs-§3.5.1 trade-off: ASCII
// reports are endian-proof but bigger; binary batches are compact and
// faster to decode, which is why the transmitter uses them for bulk
// transfer while probes keep strings.
func ablationEncoding(o Options) (*Table, error) {
	iters := 20000
	if o.Quick {
		iters = 2000
	}
	sizes := []int{1, 11, 100}
	t := &Table{
		ID:      "ablation.encoding",
		Title:   "Status encoding: ASCII report vs binary batch",
		Columns: []string{"servers", "ascii bytes", "binary bytes", "ascii enc+dec", "binary enc+dec"},
	}
	for _, n := range sizes {
		recs := make([]status.ServerStatus, n)
		for i := range recs {
			recs[i] = sysinfo.Idle(fmt.Sprintf("host-%03d", i), 3394.76, 256)
			recs[i].Load1 = 0.42
		}
		asciiBytes := 0
		for i := range recs {
			asciiBytes += len(status.EncodeReport(&recs[i]))
		}
		binBytes := len(status.MarshalSystemBatch(recs))

		start := time.Now()
		for it := 0; it < iters/n; it++ {
			for i := range recs {
				enc := status.EncodeReport(&recs[i])
				if _, err := status.DecodeReport(enc); err != nil {
					return nil, err
				}
			}
		}
		asciiTime := time.Since(start)

		start = time.Now()
		for it := 0; it < iters/n; it++ {
			enc := status.MarshalSystemBatch(recs)
			if _, err := status.UnmarshalSystemBatch(enc, nil); err != nil {
				return nil, err
			}
		}
		binTime := time.Since(start)

		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", asciiBytes), fmt.Sprintf("%d", binBytes),
			asciiTime.Round(time.Microsecond).String(), binTime.Round(time.Microsecond).String())
	}
	t.Notes = append(t.Notes,
		"ASCII wins interop (no endian/word-size contract, §3.2.1); binary wins bulk transfer (§3.5.1) — the system uses each where the thesis does",
	)
	return t, nil
}

// ablationTransport compares the two transmitter modes (§3.5.1):
// centralized push pays standing bandwidth for instant answers;
// distributed pull pays per-request latency for a silent idle
// network.
func ablationTransport(o Options) (_ *Table, err error) {
	nServers := 11
	src := store.New()
	for i := 0; i < nServers; i++ {
		src.PutSys(sysinfo.Idle(fmt.Sprintf("h%02d", i), 3000, 256))
	}
	sys, netB, sec := src.Snapshot()
	snapshotBytes := len(status.MarshalSystemBatch(sys)) +
		len(status.MarshalNetBatch(netB)) + len(status.MarshalSecBatch(sec)) + 15

	// Measure real pull latency over loopback.
	ctx, cancel := context.WithCancel(context.Background())
	g, _ := loop.NewGroup(ctx)
	defer func() { cancel(); err = cmp.Or(g.Wait(), err) }()
	tx, err := transport.NewTransmitterObs(src, nil, nil)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g.Go("transmitter", func(ctx context.Context) error { return tx.ServePassive(ctx, ln) })
	dst := store.New()
	recv, err := transport.NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
	if err != nil {
		return nil, err
	}
	g.Close(recv) // pull mode: nothing runs the receiver, so nothing else closes it
	pulls := 50
	if o.Quick {
		pulls = 10
	}
	start := time.Now()
	for i := 0; i < pulls; i++ {
		if err := recv.PullFrom([]string{ln.Addr().String()}, time.Second); err != nil {
			return nil, err
		}
	}
	pullLatency := time.Since(start) / time.Duration(pulls)

	interval := 2 * time.Second // the thesis's push interval
	pushBW := float64(snapshotBytes) / interval.Seconds()

	t := &Table{
		ID:      "ablation.transport",
		Title:   fmt.Sprintf("Transmitter modes with %d servers (snapshot %d B)", nServers, snapshotBytes),
		Columns: []string{"mode", "standing load", "per-request latency", "data freshness"},
	}
	t.AddRow("centralized push (2 s)",
		fmt.Sprintf("%.2f KBps always", pushBW/1024),
		"≈0 (wizard reads local db)",
		"≤ push interval")
	t.AddRow("distributed pull",
		"0 between requests",
		pullLatency.Round(10*time.Microsecond).String(),
		"exact at request time")
	breakEven := float64(snapshotBytes) / (pushBW)
	t.Notes = append(t.Notes,
		fmt.Sprintf("break-even: above ~%.1f requests per push interval the push mode moves less data", breakEven/interval.Seconds()),
		"matches §3.5.1: push for small busy sites, pull for sparse GRIDs with rare requests",
	)
	return t, nil
}

// ablationReporting compares UDP and TCP probe reporting (the Ch. 6
// switch): per-report cost on a healthy network.
func ablationReporting(o Options) (_ *Table, err error) {
	reports := 200
	if o.Quick {
		reports = 50
	}
	db := store.New()
	mon, err := monitor.New(monitor.Config{Addr: "127.0.0.1:0", DB: db, EnableTCP: true})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	g, _ := loop.NewGroup(ctx)
	defer func() { cancel(); err = cmp.Or(g.Wait(), err) }()
	g.Go("system monitor", mon.Run)

	t := &Table{
		ID:      "ablation.reporting",
		Title:   fmt.Sprintf("Probe report transport over loopback (%d reports)", reports),
		Columns: []string{"transport", "per-report cost", "reliability"},
	}
	for _, tr := range []probe.Transport{probe.UDP, probe.TCP} {
		p, err := probe.New(probe.Config{
			Source:    sysinfo.NewSynthetic(sysinfo.Idle("abl", 3000, 256)),
			Monitor:   mon.Addr(),
			Transport: tr,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < reports; i++ {
			if err := p.ReportOnce(); err != nil {
				return nil, err
			}
		}
		per := time.Since(start) / time.Duration(reports)
		rel := "best-effort datagram"
		if tr == probe.TCP {
			rel = "acknowledged stream"
		}
		t.AddRow(tr.String(), per.Round(time.Microsecond).String(), rel)
	}
	t.Notes = append(t.Notes,
		"UDP stays the default (§3.2.1); TCP costs a connection per report but survives congested, lossy paths (Ch. 6)",
	)
	return t, nil
}

// ablationSequential demonstrates the §3.3.3 rule: "The network
// probing procedure should be done in a sequential order. Multiple
// probes should not run simultaneously." Three peer paths share the
// monitor's access segment; probing them one at a time stays
// accurate, probing them concurrently inflates delays and wrecks the
// bandwidth estimates.
func ablationSequential(o Options) (*Table, error) {
	mkPaths := func() ([]*simnet.Path, *simnet.Segment, error) {
		seg := simnet.NewSegment()
		var paths []*simnet.Path
		for i := 0; i < 3; i++ {
			p, err := simnet.New(simnet.Config{
				Name: fmt.Sprintf("peer-%d", i+1), MTU: 1500, SpeedInit: testbed.SpeedInit,
				SysOverhead: 40 * time.Microsecond, Jitter: 0.02, Seed: o.Seed + int64(i),
				Hops: []simnet.Hop{
					{Capacity: 100e6, PropDelay: 20 * time.Microsecond, ProcDelay: 3 * time.Microsecond},
					{Capacity: 1e9, PropDelay: 20 * time.Microsecond, ProcDelay: 3 * time.Microsecond},
				},
			})
			if err != nil {
				return nil, nil, err
			}
			p.AttachSegment(seg)
			paths = append(paths, p)
		}
		return paths, seg, nil
	}
	runs := 4
	if o.Quick {
		runs = 2
	}
	s1, s2 := bwest.OptimalSizes(1500)
	cfg := bwest.StreamConfig{S1: s1, S2: s2, Runs: runs}

	estimateAll := func(paths []*simnet.Path, concurrent bool) ([]float64, error) {
		out := make([]float64, len(paths))
		if !concurrent {
			for i, p := range paths {
				st, err := bwest.Estimate(p, cfg)
				if err != nil {
					return nil, err
				}
				out[i] = st.Avg
			}
			return out, nil
		}
		errs := make([]error, len(paths))
		var wg sync.WaitGroup
		for i, p := range paths {
			wg.Add(1)
			go func(i int, p *simnet.Path) {
				defer wg.Done()
				st, err := bwest.Estimate(p, cfg)
				if err != nil {
					errs[i] = err
					return
				}
				out[i] = st.Avg
			}(i, p)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	t := &Table{
		ID:      "ablation.sequential",
		Title:   "Netmon probing order (§3.3.3): 3 peers sharing the monitor's segment",
		Columns: []string{"probing", "peer-1 (Mbps)", "peer-2 (Mbps)", "peer-3 (Mbps)", "worst error"},
	}
	paths, _, err := mkPaths()
	if err != nil {
		return nil, err
	}
	truth := paths[0].EffectiveBandwidth()
	row := func(label string, ests []float64) {
		worst := 0.0
		cells := []string{label}
		for _, e := range ests {
			cells = append(cells, mbps(e))
			if err := (truth - e) / truth; err > worst {
				worst = err
			}
		}
		cells = append(cells, pct(worst*truth, truth))
		t.AddRow(cells...)
	}
	seq, err := estimateAll(paths, false)
	if err != nil {
		return nil, err
	}
	row("sequential", seq)
	paths2, _, err := mkPaths()
	if err != nil {
		return nil, err
	}
	conc, err := estimateAll(paths2, true)
	if err != nil {
		return nil, err
	}
	row("concurrent", conc)
	t.Notes = append(t.Notes,
		fmt.Sprintf("truth per path: %s Mbps; netmon.ProbeAll is strictly sequential for exactly this reason", mbps(truth)),
	)
	return t, nil
}
