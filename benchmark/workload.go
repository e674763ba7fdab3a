package main

import (
	"fmt"
	"time"

	"smartsock/internal/status"
)

// instance is one workload set up and ready to drive.
type instance interface {
	// step runs the workload's op once in the closed loop (storm_lan11: one
	// window of 32 ops) and records every op's outcome.
	step(rec *recorder)
	// env is what the layer probes need to measure each module on this
	// workload's own inputs.
	env() probeEnv
	// counters reads the cumulative layer counters; callers take deltas.
	counters() map[string]float64
	// close tears the rig down and waits for everything it started.
	close() error
}

// setupTimes splits phase 1: a workload's setup function builds and boots,
// warmUp does the rest. ref is what the host reference cost between the
// warm-up's ops; warmup does not include it.
type setupTimes struct {
	build, boot, warmup time.Duration
	ref                 refCost
}

func (s setupTimes) total() time.Duration { return s.build + s.boot + s.warmup }

// refTotal is total() in reference seconds (see hostref.go). The host's
// speed is sampled during the warm-up, which is all but a hundredth of
// every workload's set-up.
func (s setupTimes) refTotal() float64 { return s.total().Seconds() * s.ref.speed() }

// warmUp runs a fixed count of the workload's own op, sampling the host
// reference between ops, and fails on the first op that does.
func warmUp(in instance, ops int, ref *hostRef, st *setupTimes) error {
	rec := &recorder{}
	t0 := time.Now()
	ref.start(t0)
	now := t0
	for rec.attempted < uint64(ops) {
		in.step(rec)
		if rec.failed > 0 {
			return fmt.Errorf("warm-up op failed: %s", rec.firstErr)
		}
		now = ref.pace(time.Now(), &st.ref)
	}
	st.warmup = now.Sub(t0) - st.ref.dt
	return nil
}

// sizes are a workload's fleet size and fixed warm-up op count. The
// warm-up is sized so that set-up takes about 1.8 s on the 2-vCPU box the
// bounds were measured on: a 3 ms set-up cannot repeat within a tenth, one
// of seconds dominated by the same ops as the timed phase can, and a
// change that moves 100 ms of work into set-up still shows.
type sizes struct{ hosts, warmup int }

type workload struct {
	name  string
	why   string
	sizes sizes
	setup func(seed int64, sz sizes) (instance, setupTimes, error) // build and boot; warmUp follows
}

var workloads = []workload{
	{
		name:  "connect_lan11",
		why:   "Client.Connect on the 11-host LAN: requirement text in, 3 TCP sockets out; smartsock client code and kernel dials do the work, core is a memo hit",
		sizes: sizes{hosts: 11, warmup: 15000},
		setup: setupConnect,
	},
	{
		name:  "storm_lan11",
		why:   "32 requests in flight on one UDP socket: per-datagram cost of netbatch, overload queue, proto, reqlang cache and memoised Select; no TCP",
		sizes: sizes{hosts: 11, warmup: 560_000},
		setup: setupStorm,
	},
	{
		name:  "fleet_20k_broad",
		why:   "20000 hosts, one write before every ranked request 4 hosts in 5 satisfy: core evaluation, materialisation and sort; the memo never hits",
		sizes: sizes{hosts: 20000, warmup: 42},
		setup: setupBroad,
	},
	{
		name:  "fresh_1k",
		why:   "status epoch on 1000 hosts in pull mode: 64 reports in, first reply that reflects them out; status, monitor, store, transport and index do the work",
		sizes: sizes{hosts: 1000, warmup: 1600},
		setup: setupFresh,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// probeEnv hands the layer probes a workload's inputs: its fleet, its
// requests, how many records one of its status deltas carries, its wizard
// (to call in process and over UDP) and what has to happen before each
// request for the request to do the workload's work.
type probeEnv struct {
	fleet  []status.ServerStatus
	reqs   []requirement
	delta  int
	rig    *wizardRig
	before func() error // nil where the table does not change between requests
	dial   []string     // the servers a Connect dials; probeClient only
	groups probeGroup   // the layers that do this workload's work
}
