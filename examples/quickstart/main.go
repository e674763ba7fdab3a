// Quickstart: the Fig 1.4 walkthrough, end to end, in one process.
//
// Twelve servers sit in four networks with one-way delays of 100, 5,
// 10 and 15 ms. The user wants 3 servers with at least 100 MB of
// free memory, CPU usage under 10% and network delay under 20 ms,
// and blacklists hacker.some.net. The wizard should answer B2, C1
// and D1.
//
// Everything — probes, monitors, transmitter, receiver, wizard —
// runs in this process over real loopback sockets; only the server
// status is synthetic. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"cmp"
	"context"
	"fmt"
	"log"
	"time"

	"smartsock"
	"smartsock/internal/simnet"
	"smartsock/internal/status"
	"smartsock/internal/testbed"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	// Twelve servers in four networks. B1 is busy, B3 and D2/D3 are
	// short on memory, C2 is the blacklisted host.
	type host struct {
		name    string
		network string
		cpuBusy float64
		memMB   uint64
	}
	hosts := []host{
		{"a1", "netA", 0.02, 512}, {"a2", "netA", 0.02, 512}, {"a3", "netA", 0.02, 512},
		{"b1", "netB", 0.20, 512}, {"b2", "netB", 0.02, 512}, {"b3", "netB", 0.02, 64},
		{"c1", "netC", 0.02, 512}, {"hacker.some.net", "netC", 0.02, 512}, {"c3", "netC", 0.50, 512},
		{"d1", "netD", 0.02, 512}, {"d2", "netD", 0.02, 80}, {"d3", "netD", 0.02, 64},
	}
	var machines []testbed.Machine
	for _, h := range hosts {
		machines = append(machines, testbed.Machine{
			Name: h.name, Bogomips: 3000, RAMMB: h.memMB, Group: h.network, Speed: 1,
		})
	}

	// Network delays per Fig 1.4.
	paths := map[string]*simnet.Path{}
	for network, delay := range map[string]time.Duration{
		"netA": 100 * time.Millisecond,
		"netB": 5 * time.Millisecond,
		"netC": 10 * time.Millisecond,
		"netD": 15 * time.Millisecond,
	} {
		p, err := simnet.New(simnet.Config{
			Name: "client-" + network, MTU: 1500, SpeedInit: testbed.SpeedInit,
			Jitter: 0.01, Seed: 7,
			Hops: []simnet.Hop{{Capacity: 100e6, PropDelay: delay}},
		})
		if err != nil {
			return err
		}
		paths[network] = p
	}

	cluster, err := testbed.Boot(testbed.Options{
		Machines:   machines,
		GroupPaths: paths,
	})
	if err != nil {
		return err
	}
	defer func() { err = cmp.Or(cluster.Close(), err) }()

	// Make the busy hosts actually look busy to the probes.
	for _, h := range hosts {
		if h.cpuBusy > 0.05 {
			busy := h.cpuBusy
			cluster.Sources[h.name].Update(func(s *status.ServerStatus) {
				s.CPUUser = busy
				s.CPUIdle = 1 - busy - s.CPUSystem
			})
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	fmt.Println("waiting for probes, monitors and the wizard to settle...")
	if err := cluster.WaitSettled(ctx, len(machines)); err != nil {
		return err
	}

	// The user's requirement, in the meta language of §4.3.
	requirement := `# Fig 1.4: three well-provisioned, nearby servers
host_memory_free >= 100
host_cpu_user + host_cpu_system + host_cpu_nice < 0.10
monitor_network_delay < 20
user_denied_host1 = hacker.some.net
`
	if err := smartsock.CheckRequirement(requirement); err != nil {
		return err
	}
	client, err := smartsock.NewClient(cluster.WizardAddr(), nil)
	if err != nil {
		return err
	}
	servers, err := client.RequestServers(ctx, requirement, 3)
	if err != nil {
		return err
	}
	fmt.Println("wizard selected:")
	for _, s := range servers {
		fmt.Println("  -", s)
	}
	fmt.Println("(Fig 1.4 expects b2, c1, d1: network A is too far, b1/c3 are busy,")
	fmt.Println(" b3/d2/d3 lack memory, and hacker.some.net is blacklisted)")

	return nil
}
