// Matrixcluster: the §5.3.1 workload as a user would run it — a
// distributed matrix multiplication whose workers are picked by the
// wizard from live status reports.
//
// The example boots the full Table 5.1 testbed in-process, puts a
// SuperPI-class workload on three machines, then multiplies the same
// matrices twice: once on a fixed "unlucky" server set that includes
// the busy machines, once on wizard-selected servers. The smart run
// finishes measurably faster and the result is verified against a
// local multiply.
//
//	go run ./examples/matrixcluster
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
	"smartsock/internal/matrix"
	"smartsock/internal/testbed"
	"smartsock/internal/workload"
)

const (
	matrixN   = 300
	tile      = 60
	opCost    = 30 * time.Millisecond // modeled ms per 1e6 multiply-adds
	nWorkers  = 4
	busyCount = 3
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	cluster, err := testbed.Boot(testbed.Options{})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	g, ctx := loop.NewGroup(ctx)
	defer func() { cancel(); err = cmp.Or(g.Wait(), cluster.Close(), err) }()

	// SuperPI on three of the P4 1.6–1.8 machines.
	busy := []string{"helene", "telesto", "mimas"}
	for _, host := range busy {
		release := workload.Apply(cluster.Sources[host], workload.SuperPI())
		defer release()
	}

	if err := cluster.WaitSettled(ctx, len(cluster.Machines)); err != nil {
		return err
	}

	// One matrix worker per machine, each slowed to its Fig 5.2 speed;
	// the busy ones also lose half their CPU to SuperPI.
	busySet := map[string]bool{}
	for _, h := range busy {
		busySet[h] = true
	}
	addrs := map[string]string{}
	for name, m := range cluster.Machines {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		w := &matrix.Worker{Name: name, SpeedFactor: m.Speed / 1.3, OpCost: opCost}
		if busySet[name] {
			w.LoadFactor = func() float64 { return 0.5 }
		}
		g.Go("worker "+name, func(ctx context.Context) error { return w.Serve(ctx, ln) })
		addrs[name] = ln.Addr().String()
	}

	a, err := matrix.NewRandom(matrixN, matrixN, 1)
	if err != nil {
		return err
	}
	b, err := matrix.NewRandom(matrixN, matrixN, 2)
	if err != nil {
		return err
	}
	want, err := matrix.MultiplyLocal(a, b)
	if err != nil {
		return err
	}

	multiply := func(names []string) (time.Duration, error) {
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
		start := time.Now()
		c, err := matrix.Distribute(ctx, a, b, tile, conns)
		if err != nil {
			return 0, err
		}
		if !c.Equal(want, 1e-9) {
			return 0, fmt.Errorf("distributed result differs from local multiply")
		}
		return time.Since(start), nil
	}

	// Unlucky draw: two busy machines in the set.
	unlucky := []string{"helene", "telesto", "calypso", "phoebe"}
	unluckyTime, err := multiply(unlucky)
	if err != nil {
		return err
	}
	fmt.Printf("fixed set   %v: %v\n", unlucky, unluckyTime.Round(time.Millisecond))

	// Smart selection: fast, unloaded machines only.
	client, err := smartsock.NewClient(cluster.WizardAddr(), nil)
	if err != nil {
		return err
	}
	smartSet, err := client.RequestServers(ctx, `
host_cpu_free > 0.9
host_memory_free > 5
host_system_load1 < 0.5
`, nWorkers)
	if err != nil {
		return err
	}
	smartTime, err := multiply(smartSet)
	if err != nil {
		return err
	}
	fmt.Printf("smart set   %v: %v\n", smartSet, smartTime.Round(time.Millisecond))
	fmt.Printf("improvement: %.1f%% (result verified against local multiply)\n",
		(1-smartTime.Seconds()/unluckyTime.Seconds())*100)
	return nil
}
