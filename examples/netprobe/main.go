// Netprobe: the §3.3.2 bandwidth measurement study as a live demo.
//
// Part 1 runs the one-way UDP stream estimator against a *real* UDP
// echo server on loopback — the same code path a production network
// monitor uses (raw-ICMP-free).
//
// Part 2 reruns the thesis's probe-size comparison on the simulated
// 100 Mbps campus path: probe pairs below the interface MTU
// under-estimate badly (the Speed_init effect of Eq. 3.7); the
// 1600/2900 pair recommended by the thesis lands near the truth;
// pipechar and pathload baselines bracket it.
//
//	go run ./examples/netprobe
package main

import (
	"cmp"
	"context"
	"fmt"
	"log"
	"time"

	"smartsock/internal/bwest"
	"smartsock/internal/loop"
	"smartsock/internal/testbed"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	// --- Part 1: live probing over loopback UDP ---
	ctx, cancel := context.WithCancel(context.Background())
	g, _ := loop.NewGroup(ctx)
	defer func() { cancel(); err = cmp.Or(g.Wait(), err) }()
	echo, err := bwest.NewEchoServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	g.Go("echo server", echo.Run)
	prober, err := bwest.NewUDPProber(echo.Addr(), time.Second)
	if err != nil {
		return err
	}
	defer prober.Close()

	fmt.Println("live loopback RTTs (UDP echo):")
	for _, size := range []int{64, 512, 1472, 2900} {
		rtt := prober.ProbeRTT(size)
		fmt.Printf("  %5d B payload: %v\n", size, rtt.Round(time.Microsecond))
	}

	// --- Part 2: the Table 3.3 comparison on the simulated path ---
	path, err := testbed.CampusPath(1500, 42)
	if err != nil {
		return err
	}
	fmt.Printf("\nsimulated sagit→suna path: true available bandwidth %.1f Mbps\n",
		path.EffectiveBandwidth()/1e6)

	for _, g := range []struct {
		s1, s2 int
		label  string
	}{
		{100, 500, "both below MTU (Speed_init bites)"},
		{2000, 6000, "above MTU, unequal fragment counts"},
		{1600, 2900, "thesis-optimal pair"},
	} {
		st, err := bwest.Estimate(path, bwest.StreamConfig{S1: g.s1, S2: g.s2, Runs: 5})
		if err != nil {
			return err
		}
		fmt.Printf("  UDP stream %4d~%4d B: %6.2f Mbps   (%s)\n",
			g.s1, g.s2, st.Avg/1e6, g.label)
	}
	pc, err := bwest.Pipechar{}.Estimate(path)
	if err != nil {
		return err
	}
	fmt.Printf("  pipechar  (packet pair): %6.2f Mbps   (bottleneck capacity)\n", pc/1e6)
	lo, hi, err := bwest.Pathload{}.Estimate(path)
	if err != nil {
		return err
	}
	fmt.Printf("  pathload  (SLoPS):       %5.1f~%.1f Mbps\n", lo/1e6, hi/1e6)

	// The MTU knee, detected blind.
	pts := bwest.RTTSweep(path, 6000, 20)
	fmt.Printf("\nRTT sweep knee detected at %d bytes (interface MTU 1500)\n", bwest.DetectMTU(pts))
	return nil
}
