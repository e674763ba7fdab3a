package experiments

// Chapter 4/5 system studies: the SuperPI memory footprint
// comparison (Table 4.1) and the per-component resource budget with
// 11 probes reporting (Table 5.2).

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"smartsock/internal/status"
	"smartsock/internal/sysinfo"
	"smartsock/internal/testbed"
	"smartsock/internal/workload"
)

// table41 reproduces Table 4.1: memory status before and after
// starting SuperPI on a 256 MB host.
func table41(o Options) (*Table, error) {
	src := sysinfo.NewSynthetic(sysinfo.Idle("mimas", 3394.76, 256))
	before, err := src.Snapshot()
	if err != nil {
		return nil, err
	}
	release := workload.Apply(src, workload.SuperPI())
	defer release()
	after, err := src.Snapshot()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table4.1",
		Title:   "Memory usage before (Mem1) and after (Mem2) SuperPI, bytes",
		Columns: []string{"", "total", "used", "free"},
	}
	row := func(label string, s status.ServerStatus) {
		t.AddRow(label,
			fmt.Sprintf("%d", s.MemTotal),
			fmt.Sprintf("%d", s.MemUsed),
			fmt.Sprintf("%d", s.MemFree))
	}
	row("Mem1", before)
	row("Mem2", after)
	t.Notes = append(t.Notes,
		fmt.Sprintf("SuperPI consumed %d MB (paper: ≈150 MB with parameter 25)",
			(before.MemFree-after.MemFree)/(1024*1024)),
	)
	return t, nil
}

// table52 reproduces Table 5.2: resource figures per component with
// 11 probes running. CPU percentages on the original P4 are not
// reproducible on different hardware, so the measured columns here
// are the ones that transfer: message sizes, message rates and the
// network bandwidth each component consumes — the figures the thesis
// derives its capacity claims from.
func table52(o Options) (_ *Table, err error) {
	interval := 100 * time.Millisecond
	settle := 6 * interval
	if o.Quick {
		settle = 4 * interval
	}
	cluster, err := testbed.Boot(testbed.Options{ProbeInterval: interval})
	if err != nil {
		return nil, err
	}
	defer func() { err = cmp.Or(cluster.Close(), err) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cluster.WaitSettled(ctx, len(cluster.Machines)); err != nil {
		return nil, err
	}
	sleep(settle)

	// Measure the real report size of a live host.
	rec, ok := cluster.WizardDB.GetSys("sagit")
	if !ok {
		return nil, fmt.Errorf("table5.2: sagit never reported")
	}
	reportBytes := len(status.EncodeReport(&rec.Status))
	probes := len(cluster.Machines)
	perProbeBW := float64(reportBytes) / interval.Seconds()
	sysMonBW := perProbeBW * float64(probes)

	sys, net, sec := cluster.WizardDB.Snapshot()
	snapshotBytes := len(status.MarshalSystemBatch(sys)) +
		len(status.MarshalNetBatch(net)) + len(status.MarshalSecBatch(sec)) + 15 // 3 frame headers
	txBW := float64(snapshotBytes) / interval.Seconds()

	t := &Table{
		ID:      "table5.2",
		Title:   fmt.Sprintf("System resources with %d probes at %v interval", probes, interval),
		Columns: []string{"program", "unit msg(B)", "msgs/s", "net bandwidth", "transport"},
	}
	rate := 1 / interval.Seconds()
	t.AddRow("System Probe", fmt.Sprintf("%d", reportBytes), f1(rate),
		fmt.Sprintf("%.1f KBps", perProbeBW/1024), "UDP")
	t.AddRow("System Monitor", fmt.Sprintf("%d", reportBytes), f1(rate*float64(probes)),
		fmt.Sprintf("%.1f KBps", sysMonBW/1024), "UDP")
	t.AddRow("Security Monitor", "-", f1(rate), "(log file)", "-")
	t.AddRow("Transmitter", fmt.Sprintf("%d", snapshotBytes), f1(rate),
		fmt.Sprintf("%.1f KBps", txBW/1024), "TCP")
	t.AddRow("Receiver", fmt.Sprintf("%d", snapshotBytes), f1(rate),
		fmt.Sprintf("%.1f KBps", txBW/1024), "TCP")
	t.AddRow("Wizard", "~150 req / reply", "per request", "<1 KBps", "UDP")
	t.Notes = append(t.Notes,
		"paper (2 s interval): probe 0.5–0.6 KBps, monitor 5.7 KBps, transmitter/receiver 1.2 KBps",
		fmt.Sprintf("probe report is %d bytes (paper: <200 B); scale bandwidth by interval ratio to compare", reportBytes),
	)
	return t, nil
}
