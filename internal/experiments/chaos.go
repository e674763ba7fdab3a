package experiments

// Fault-injection study (beyond the thesis): how probe-report loss
// degrades the selection pipeline. The thesis assumes the monitor's
// local network loses reports only rarely (§3.2.1); this sweep
// quantifies what happens when that assumption fails — warm-up time
// until every server is selectable, and the client-observed latency
// of a selection request over an equally lossy wizard link.

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"time"

	"smartsock"
	"smartsock/internal/chaos"
	"smartsock/internal/testbed"
)

func chaosLoss(o Options) (*Table, error) {
	rates := []float64{0, 0.1, 0.2, 0.3}
	requests := 10
	machines := testbed.Machines()[:5]
	if o.Quick {
		rates = []float64{0, 0.2}
		requests = 3
		machines = testbed.Machines()[:3]
	}
	const interval = 25 * time.Millisecond

	t := &Table{
		ID:    "chaos.loss",
		Title: "Probe-report loss vs. pipeline warm-up and selection latency",
		Columns: []string{
			"loss", "settle_ms", "reports_dropped", "req_mean_ms", "req_ok",
		},
	}

	for _, rate := range rates {
		probeFaults := chaos.New(chaos.Config{Seed: o.Seed, DropRate: rate})
		start := time.Now()
		cluster, err := testbed.Boot(testbed.Options{
			Machines:      machines,
			ProbeInterval: interval,
			ProbeFaults:   probeFaults,
		})
		if err != nil {
			return nil, err
		}
		settleCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		settleErr := cluster.WaitSettled(settleCtx, len(machines))
		cancel()
		if settleErr != nil {
			return nil, cmp.Or(cluster.Close(), fmt.Errorf("loss %.0f%%: %w", rate*100, settleErr))
		}
		settle := time.Since(start)

		// Selection latency over a wizard link with the same loss rate:
		// the client's retry/backoff path absorbs dropped requests.
		clientFaults := chaos.New(chaos.Config{Seed: o.Seed + 1, DropRate: rate})
		client, err := smartsock.NewClient(cluster.WizardAddr(), &smartsock.ClientConfig{
			Timeout: 250 * time.Millisecond,
			Retries: 5,
			Dial: func(network, addr string) (net.Conn, error) {
				conn, err := net.Dial(network, addr)
				if err != nil {
					return nil, err
				}
				return clientFaults.WrapConn(conn), nil
			},
		})
		if err != nil {
			return nil, cmp.Or(cluster.Close(), err)
		}
		var total time.Duration
		ok := 0
		for i := 0; i < requests; i++ {
			reqCtx, cancelReq := context.WithTimeout(context.Background(), 5*time.Second)
			reqStart := time.Now()
			_, err := client.RequestServers(reqCtx, "host_memory_total > 0\n", 2, smartsock.OptPartialOK)
			cancelReq()
			if err == nil {
				total += time.Since(reqStart)
				ok++
			}
		}
		mean := time.Duration(0)
		if ok > 0 {
			mean = total / time.Duration(ok)
		}
		t.AddRow(
			fmt.Sprintf("%.0f%%", rate*100),
			fmt.Sprintf("%d", settle.Milliseconds()),
			fmt.Sprintf("%d", probeFaults.Dropped()),
			f1(float64(mean.Microseconds())/1000),
			fmt.Sprintf("%d/%d", ok, requests),
		)
		if err := cluster.Close(); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes,
		"loss applies send-side to every probe report and client request datagram",
		"settle_ms = Boot until all servers selectable; stays flat because a host only needs one report through",
		"req_mean_ms includes UDP retries with jittered backoff on the lossy wizard link",
	)
	return t, nil
}
