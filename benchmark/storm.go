package main

import (
	"errors"
	"fmt"
	"math/rand"
)

type stormInst struct {
	*lanRig
	*stormClient
}

func setupStorm(seed int64, sz sizes) (instance, setupTimes, error) {
	names := make([]string, sz.hosts)
	for i := range names {
		names[i] = fmt.Sprintf("192.168.5.%d:7000", i+1)
	}
	p := newProcs()
	l, st, err := bootLAN(p, seed, names, 3)
	if err != nil {
		return nil, st, errors.Join(err, p.stop())
	}
	// The sequence numbers come from the seed too, off a stream of their
	// own so the fleet does not depend on how many were drawn.
	seq0 := rand.New(rand.NewSource(seed ^ 0x5eed)).Uint32()
	sc, err := newStormClient(l.rig.wz.Addr(), l.reqs, l.fleet, seq0)
	if err != nil {
		return nil, st, errors.Join(err, p.stop())
	}
	return &stormInst{lanRig: l, stormClient: sc}, st, nil
}

func (s *stormInst) env() probeEnv {
	return probeEnv{fleet: s.fleet, reqs: s.reqs, delta: 1, rig: s.rig, groups: probeServe}
}

func (s *stormInst) counters() map[string]float64 { return rigCounters(s.rig) }

func (s *stormInst) close() error {
	return errors.Join(s.stormClient.close(), s.p.stop())
}
