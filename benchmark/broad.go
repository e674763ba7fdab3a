package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"smartsock"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// broadInst is a fleet whose table changes between any two requests: the
// generator rewrites one host before every op, so the selection memo
// never hits and the index applies one delta beside every read.
type broadInst struct {
	p      *procs
	rig    *wizardRig
	client *smartsock.Client
	fleet  []status.ServerStatus
	lookup func(string) *status.ServerStatus
	rng    *rand.Rand
	cursor int
	req    requirement
}

func setupBroad(seed int64, sz sizes) (instance, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	b := &broadInst{p: newProcs(), rng: rand.New(rand.NewSource(seed)), req: broadReq}
	b.fleet = bigFleet(b.rng, sz.hosts)
	b.lookup = lookupIn(b.fleet)
	db := store.New()
	for _, s := range b.fleet {
		db.PutSys(s)
	}
	st.build = time.Since(t0)
	t0 = time.Now()
	var err error
	if b.rig, err = bootWizard(b.p, db, daemonMaxQueue, nil); err != nil {
		return nil, st, errors.Join(err, b.p.stop())
	}
	if b.client, err = smartsock.NewClient(b.rig.wz.Addr(), nil); err != nil {
		return nil, st, errors.Join(err, b.p.stop())
	}
	st.boot = time.Since(t0)
	return b, st, nil
}

// next gives the next host round-robin changed values in the generator's
// copy of the fleet.
func (b *broadInst) next() *status.ServerStatus {
	s := &b.fleet[b.cursor]
	b.cursor = (b.cursor + 1) % len(b.fleet)
	jitter(b.rng, s)
	return s
}

// touch writes the next changed host into the wizard's database.
func (b *broadInst) touch() { b.rig.db.PutSys(*b.next()) }

func (b *broadInst) step(rec *recorder) {
	root := rec.tr.begin("op")
	defer rec.tr.end(root)
	sp := rec.tr.begin("store.PutSys")
	b.touch()
	rec.tr.end(sp)

	sp = rec.tr.begin("smartsock.RequestServers")
	t0 := time.Now()
	servers, err := b.client.RequestServers(b.p.ctx, b.req.text, b.req.n, b.req.opt)
	d := time.Since(t0)
	rec.tr.end(sp)
	if err == nil {
		err = b.req.check(servers, b.lookup)
	}
	if err == nil && rec.tr != nil {
		sp = rec.tr.begin("harness.top8")
		err = b.checkTop(servers)
		rec.tr.end(sp)
	}
	if err != nil {
		rec.fail(err.Error())
		return
	}
	rec.ok(d)
}

// checkTop recomputes the answer from the generator's own copy of the
// fleet: the reply's scores must be the n highest among qualifying hosts.
func (b *broadInst) checkTop(servers []string) error {
	var scores []float64
	for i := range b.fleet {
		if b.req.ok(&b.fleet[i]) {
			scores = append(scores, b.req.score(&b.fleet[i]))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	for i, name := range servers {
		if got := b.req.score(b.lookup(name)); got != scores[i] {
			return fmt.Errorf("rank %d is %s with score %g, the fleet's is %g", i, name, got, scores[i])
		}
	}
	return nil
}

func (b *broadInst) env() probeEnv {
	return probeEnv{fleet: b.fleet, reqs: []requirement{b.req}, delta: 1, rig: b.rig, groups: probeSelect,
		before: func() error { b.touch(); return nil }}
}

func (b *broadInst) counters() map[string]float64 { return rigCounters(b.rig) }

func (b *broadInst) close() error { return b.p.stop() }
