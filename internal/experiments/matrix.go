package experiments

// The §5.3.1 matrix multiplication evaluation: the per-machine
// benchmark (Fig 5.2) and the four random-versus-smart comparisons
// (Tables 5.3–5.6).
//
// Sizes are scaled from the paper's 1500×1500 so each arm runs in
// well under a minute of laptop time; both arms of every comparison
// scale identically, so the improvement percentages — the quantity
// the paper reports — are preserved.

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"smartsock"
	"smartsock/internal/loop"
	"smartsock/internal/matrix"
	"smartsock/internal/shaper"
	"smartsock/internal/testbed"
	"smartsock/internal/workload"
)

// maxSpeed normalises Fig 5.2 speeds so the fastest class runs the
// worker at full rate.
func maxSpeed() float64 {
	best := 0.0
	for _, m := range testbed.Machines() {
		if m.Speed > best {
			best = m.Speed
		}
	}
	return best
}

// workerFleet runs one matrix worker per testbed machine in g and returns
// the name→address map experiments dial through. In the paper the
// workers are the service programs the selected sockets connect to.
func workerFleet(g *loop.Group, machines []testbed.Machine, opCost time.Duration, busy map[string]bool) (map[string]string, error) {
	norm := maxSpeed()
	addrs := make(map[string]string, len(machines))
	for _, m := range machines {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		w := &matrix.Worker{Name: m.Name, SpeedFactor: m.Speed / norm, OpCost: opCost}
		if busy[m.Name] {
			// SuperPI competes for the CPU: the worker gets about half
			// of it (§5.3.1 experiment 4).
			w.LoadFactor = func() float64 { return 0.5 }
		}
		g.Go("worker "+m.Name, func(ctx context.Context) error { return w.Serve(ctx, ln) })
		addrs[m.Name] = ln.Addr().String()
	}
	return addrs, nil
}

// runMatrix multiplies two n×n matrices across the named workers and
// returns the wall time. linkRate, when positive, caps the master's
// aggregate network rate in bytes/second — the paper's master talks
// to every worker through one 100 Mbps interface, which is what
// compresses the gains of the many-server, small-block experiments
// (the thesis blames exactly this "increased communication overhead"
// for the modest 6v6 result).
func runMatrix(ctx context.Context, names []string, addrs map[string]string, n, blk int, linkRate float64, seed int64) (time.Duration, error) {
	a, err := matrix.NewRandom(n, n, seed)
	if err != nil {
		return 0, err
	}
	b, err := matrix.NewRandom(n, n, seed+1)
	if err != nil {
		return 0, err
	}
	var link *shaper.Bucket
	if linkRate > 0 {
		link, err = shaper.NewBucket(linkRate, 64*1024)
		if err != nil {
			return 0, err
		}
	}
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for _, name := range names {
		addr, ok := addrs[name]
		if !ok {
			return 0, fmt.Errorf("no worker for server %q", name)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return 0, err
		}
		if link != nil {
			conn = shaper.NewConn(conn, link, link)
		}
		conns = append(conns, conn)
	}
	start := time.Now()
	if _, err := matrix.Distribute(ctx, a, b, blk, conns); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// fig52 reproduces the benchmarking step: the same matrix product on
// every machine alone, revealing the per-host compute speed.
func fig52(o Options) (_ *Table, err error) {
	n, blk := 240, 80
	opCost := 40 * time.Millisecond // per 1e6 multiply-adds at full speed
	if o.Quick {
		n, blk, opCost = 120, 60, 20*time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	g, ctx := loop.NewGroup(ctx)
	defer func() { cancel(); err = cmp.Or(g.Wait(), err) }()
	machines := testbed.Machines()
	addrs, err := workerFleet(g, machines, opCost, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig5.2",
		Title:   fmt.Sprintf("Matrix benchmark per machine (%d×%d, blk=%d, scaled from 1500²/200)", n, n, blk),
		Columns: []string{"machine", "CPU", "time", "relative speed"},
	}
	type row struct {
		m testbed.Machine
		d time.Duration
	}
	var rows []row
	for _, m := range machines {
		d, err := runMatrix(ctx, []string{m.Name}, addrs, n, blk, 0, o.Seed)
		if err != nil {
			return nil, fmt.Errorf("benchmark %s: %w", m.Name, err)
		}
		rows = append(rows, row{m, d})
	}
	best := rows[0].d
	for _, r := range rows {
		if r.d < best {
			best = r.d
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d < rows[j].d })
	for _, r := range rows {
		t.AddRow(r.m.Name, r.m.CPU, r.d.Round(time.Millisecond).String(),
			f2(float64(best)/float64(r.d)))
	}
	t.Notes = append(t.Notes,
		"paper shape: P3 866MHz and P4 2.4GHz outperform the P4 1.6–1.8GHz series for this program",
	)
	return t, nil
}

// matrixCase describes one of the Tables 5.3–5.6 comparisons.
type matrixCase struct {
	id, title   string
	servers     int
	blkOf       func(n int) int
	requirement string
	randomSet   []string // the paper's drawn random set
	paperRandom float64  // seconds, for the notes
	paperSmart  float64
	busyHosts   []string // SuperPI hosts (Table 5.6)
	pool        []string // restrict the cluster to these machines (nil = all)
}

var matrix23 = matrixCase{
	id: "table5.3", title: "2 vs 2 under zero workload", servers: 2,
	blkOf:       func(n int) int { return n * 2 / 5 }, // paper: blk 600 of 1500
	requirement: `(host_cpu_bogomips > 4000) && (host_cpu_free > 0.9) && (host_memory_free > 5)`,
	randomSet:   []string{"lhost", "phoebe"},
	paperRandom: 100.16, paperSmart: 63.00,
}

var matrix44 = matrixCase{
	id: "table5.4", title: "4 vs 4 under zero workload", servers: 4,
	blkOf:       func(n int) int { return n * 2 / 15 }, // paper: blk 200 of 1500
	requirement: `((host_cpu_bogomips > 4000) || (host_cpu_bogomips < 2000)) && (host_cpu_free > 0.9) && (host_memory_free > 5)`,
	randomSet:   []string{"phoebe", "pandora-x", "calypso", "telesto"},
	paperRandom: 62.61, paperSmart: 49.95,
}

var matrix66 = matrixCase{
	id: "table5.5", title: "6 vs 6 under zero workload (blacklist option)", servers: 6,
	blkOf: func(n int) int { return n * 2 / 15 },
	requirement: `(host_cpu_free > 0.9) && (host_memory_free > 5)
user_denied_host1 = telesto
user_denied_host2 = mimas
user_denied_host3 = phoebe
user_denied_host4 = calypso
user_denied_host5 = "titan-x"
`,
	randomSet:   []string{"phoebe", "pandora-x", "calypso", "telesto", "helene", "lhost"},
	paperRandom: 46.90, paperSmart: 43.02,
}

var matrix44load = matrixCase{
	id: "table5.6", title: "4 vs 4 with SuperPI workload on 3 hosts", servers: 4,
	blkOf:       func(n int) int { return n * 2 / 15 },
	requirement: `(host_cpu_free > 0.9) && (host_memory_free > 5) && (host_system_load1 < 0.5)`,
	randomSet:   []string{"mimas", "helene", "calypso", "telesto"},
	paperRandom: 90.93, paperSmart: 66.72,
	busyHosts: []string{"helene", "telesto", "mimas"},
	pool:      []string{"mimas", "telesto", "helene", "phoebe", "calypso", "titan-x", "pandora-x"},
}

// matrixComparison runs one random-versus-smart matrix experiment.
func matrixComparison(o Options, c matrixCase) (_ *Table, err error) {
	n := 360
	opCost := 40 * time.Millisecond
	// The master's LAN interface, scaled like OpCost: the paper moves
	// 2·N³·8/blk bytes through one 100 Mbps NIC, ≈40%% of the wall
	// time in the blk=200 experiments.
	masterLink := 20e6 // bytes/s
	if o.Quick {
		n, opCost, masterLink = 150, 60*time.Millisecond, 80e6
	}
	blk := c.blkOf(n)
	if blk < 1 {
		blk = 1
	}

	var machines []testbed.Machine
	if c.pool == nil {
		machines = testbed.Machines()
	} else {
		for _, name := range c.pool {
			m, ok := testbed.MachineByName(name)
			if !ok {
				return nil, fmt.Errorf("%s: unknown pool machine %q", c.id, name)
			}
			machines = append(machines, m)
		}
	}

	cluster, err := testbed.Boot(testbed.Options{Machines: machines, ProbeInterval: 40 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	g, ctx := loop.NewGroup(ctx)
	defer func() { cancel(); err = cmp.Or(g.Wait(), cluster.Close(), err) }()

	// Start the workload before waiting, so the wizard sees busy hosts.
	for _, host := range c.busyHosts {
		src, ok := cluster.Sources[host]
		if !ok {
			return nil, fmt.Errorf("%s: busy host %q not in pool", c.id, host)
		}
		release := workload.Apply(src, workload.SuperPI())
		defer release()
	}

	if err := cluster.WaitSettled(ctx, len(machines)); err != nil {
		return nil, err
	}
	// One extra probe interval so post-workload reports are the ones
	// in the database.
	sleep(100 * time.Millisecond)

	busy := make(map[string]bool, len(c.busyHosts))
	for _, h := range c.busyHosts {
		busy[h] = true
	}
	addrs, err := workerFleet(g, machines, opCost, busy)
	if err != nil {
		return nil, err
	}

	client, err := smartsock.NewClient(cluster.WizardAddr(), nil)
	if err != nil {
		return nil, err
	}
	smartSet, err := client.RequestServers(ctx, c.requirement, c.servers)
	if err != nil {
		return nil, fmt.Errorf("%s: smart selection: %w", c.id, err)
	}

	randomTime, err := runMatrix(ctx, c.randomSet, addrs, n, blk, masterLink, o.Seed)
	if err != nil {
		return nil, fmt.Errorf("%s: random arm: %w", c.id, err)
	}
	smartTime, err := runMatrix(ctx, smartSet, addrs, n, blk, masterLink, o.Seed)
	if err != nil {
		return nil, fmt.Errorf("%s: smart arm: %w", c.id, err)
	}

	t := &Table{
		ID:      c.id,
		Title:   c.title,
		Columns: []string{"item", "Random", "Smart Library"},
	}
	t.AddRow("matrix size", fmt.Sprintf("%d×%d, blk=%d", n, n, blk), fmt.Sprintf("%d×%d, blk=%d", n, n, blk))
	t.AddRow("no. of servers", fmt.Sprintf("%d", c.servers), fmt.Sprintf("%d", c.servers))
	t.AddRow("requirement", "null", strings.ReplaceAll(strings.TrimSpace(c.requirement), "\n", "; "))
	t.AddRow("server list", strings.Join(c.randomSet, ", "), strings.Join(smartSet, ", "))
	t.AddRow("time used (s)", f2(randomTime.Seconds()), f2(smartTime.Seconds()))
	improvement := randomTime.Seconds() - smartTime.Seconds()
	t.Notes = append(t.Notes,
		fmt.Sprintf("improvement: %s (paper: %.2f s → %.2f s, %s)",
			pct(improvement, randomTime.Seconds()),
			c.paperRandom, c.paperSmart,
			pct(c.paperRandom-c.paperSmart, c.paperRandom)),
		"random arm uses the paper's published random draw for reproducibility",
	)
	return t, nil
}
