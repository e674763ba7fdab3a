// Massdownload: the §5.3.2 workload — fetch one large object from
// several file servers in parallel, letting the wizard pick servers
// on fast links.
//
// Two server groups sit behind shaped uplinks (the rshaper stand-in):
// group-1 at 6.72 Mbps-equivalent, group-2 at 1.33. The network
// monitor measures both paths; the requirement
// "monitor_network_bw > 6" steers the download to the fast group.
//
//	go run ./examples/massdownload
package main

import (
	"cmp"
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"smartsock"
	"smartsock/internal/loop"
	"smartsock/internal/massd"
	"smartsock/internal/shaper"
	"smartsock/internal/simnet"
	"smartsock/internal/testbed"
)

const (
	fastMbps = 6.72
	slowMbps = 1.33
	// 1 paper-Mbps of rshaper setting = 32 KiB/s of real loopback
	// transfer, so the demo finishes in seconds.
	bwScale = 32 * 1024
	totalKB = 192
	blockKB = 16
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	groups := map[string]float64{"group-1": fastMbps, "group-2": slowMbps}

	// Paths the network monitor probes, pinned to the group rates.
	paths := map[string]*simnet.Path{}
	for group, mbps := range groups {
		p, err := testbed.GroupPath(group, mbps, 11)
		if err != nil {
			return err
		}
		paths[group] = p
	}

	// The six file-server machines of the thesis's massd experiments.
	var machines []testbed.Machine
	for _, name := range []string{"mimas", "telesto", "lhost", "dione", "titan-x", "pandora-x"} {
		m, _ := testbed.MachineByName(name)
		machines = append(machines, m)
	}
	cluster, err := testbed.Boot(testbed.Options{Machines: machines, GroupPaths: paths})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	g, ctx := loop.NewGroup(ctx)
	defer func() { cancel(); err = cmp.Or(g.Wait(), cluster.Close(), err) }()

	fmt.Println("probing group bandwidths...")
	if err := cluster.WaitSettled(ctx, len(machines)); err != nil {
		return err
	}
	for _, r := range cluster.WizardDB.Net() {
		fmt.Printf("  %s → %s: %.2f Mbps, %v one-way\n",
			r.Metric.From, r.Metric.To, r.Metric.Bandwidth/1e6, r.Metric.Delay.Round(10*time.Microsecond))
	}

	// Start one shaped file server per machine.
	addrs := map[string]string{}
	for name, m := range cluster.Machines {
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		shaped, err := shaper.NewListener(raw, groups[m.Group]*bwScale)
		if err != nil {
			return err
		}
		srv := &massd.Server{}
		g.Go("file server "+name, func(ctx context.Context) error { return srv.Serve(ctx, shaped) })
		addrs[name] = raw.Addr().String()
	}

	download := func(names []string) (float64, error) {
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for _, n := range names {
			conn, err := net.Dial("tcp", addrs[n])
			if err != nil {
				return 0, err
			}
			conns = append(conns, conn)
		}
		stats, err := massd.Download(ctx, conns, totalKB*1024, blockKB*1024)
		if err != nil {
			return 0, err
		}
		return stats.ThroughputKBps(), nil
	}

	client, err := smartsock.NewClient(cluster.WizardAddr(), nil)
	if err != nil {
		return err
	}
	smartSet, err := client.RequestServers(ctx, "monitor_network_bw > 6", 2)
	if err != nil {
		return err
	}
	naive := []string{"dione", "titan-x"} // the slow group

	naiveKBps, err := download(naive)
	if err != nil {
		return err
	}
	smartKBps, err := download(smartSet)
	if err != nil {
		return err
	}
	fmt.Printf("naive set %v: %.0f KB/s\n", naive, naiveKBps)
	fmt.Printf("smart set %v: %.0f KB/s (%.1fx)\n", smartSet, smartKBps, smartKBps/naiveKBps)
	return nil
}
