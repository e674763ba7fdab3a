package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"smartsock/internal/core"
	"smartsock/internal/obs"
	"smartsock/internal/overload"
	"smartsock/internal/store"
	"smartsock/internal/wizard"
)

// The daemon defaults, read off cmd/wizardd and cmd/sysmond: the serve
// path measured is the admission-controlled one wizardd really runs.
const (
	daemonBatch    = 32
	daemonShards   = 1
	daemonWorkers  = 1
	daemonMaxQueue = 1024
	daemonTarget   = 5 * time.Millisecond
)

// daemonLog is where the in-process daemons log, as theirs do to stderr.
// They log only faults, so a quiet run prints nothing.
var daemonLog = log.New(os.Stderr, "daemon: ", 0)

// procs runs the long-lived goroutines of a rig and stops them together.
type procs struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error
}

func newProcs() *procs {
	p := &procs{}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	return p
}

// run starts fn and keeps the first error any of them returns before stop.
func (p *procs) run(name string, fn func(context.Context) error) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		if err := fn(p.ctx); err != nil && p.ctx.Err() == nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = fmt.Errorf("%s: %w", name, err)
			}
			p.mu.Unlock()
		}
	}()
}

// stop cancels every goroutine, waits for them and reports the first
// error one of them died with while the rig was up.
func (p *procs) stop() error {
	p.cancel()
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// wizardRig is one wizard assembled from the public constructors the way
// cmd/wizardd does it, with an obs.Registry attached as under -debug.
type wizardRig struct {
	reg  *obs.Registry
	db   *store.DB
	gate *overload.Gate
	sel  *core.Selector
	wz   *wizard.Wizard
}

// bootWizard binds and serves a wizard over db. maxQueue is daemonMaxQueue
// for the serve path under test and 0 for the bare (unprotected) one.
func bootWizard(p *procs, db *store.DB, maxQueue int, update wizard.UpdateFunc) (*wizardRig, error) {
	r := &wizardRig{reg: obs.NewRegistry(), db: db}
	db.RegisterObs(r.reg, "wizard")
	r.gate = overload.New(overload.Config{MaxQueue: maxQueue, Target: daemonTarget, Obs: r.reg})
	var err error
	if r.sel, err = core.New(db, core.Config{Obs: r.reg}); err != nil {
		return nil, err
	}
	r.wz, err = wizard.New(wizard.Config{
		Addr:     "127.0.0.1:0",
		Selector: r.sel,
		Update:   update,
		Logger:   daemonLog,
		Workers:  daemonWorkers,
		Batch:    daemonBatch,
		Shards:   daemonShards,
		Overload: r.gate,
		Obs:      r.reg,
	})
	if err != nil {
		return nil, err
	}
	p.run("wizard", r.wz.Run)
	return r, nil
}

// leakCheck remembers the goroutine and descriptor counts of an idle
// process so a torn-down rig can be shown to have left nothing behind.
type leakCheck struct{ goroutines, fds int }

func newLeakCheck() leakCheck {
	return leakCheck{goroutines: runtime.NumGoroutine(), fds: openFDs()}
}

// settled waits for both counts to return to the baseline, then returns
// the memory the rig held to the OS so the next set-up starts level.
func (l leakCheck) settled() error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), openFDs()
		if g <= l.goroutines && f <= l.fds {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("teardown left %d goroutines (baseline %d) and %d descriptors (baseline %d)",
				g, l.goroutines, f, l.fds)
		}
		time.Sleep(2 * time.Millisecond)
	}
	debug.FreeOSMemory()
	return nil
}
