// Package testbed reconstructs the thesis's evaluation environment
// (§5.1) in one process: the 11 Linux machines of Table 5.1 become
// virtual hosts with synthetic status sources, the network topology
// of Fig 5.1 becomes a set of simnet paths, and the full component
// pipeline — probes, system/network/security monitors, transmitter,
// receiver, wizard — runs over real UDP and TCP sockets on loopback,
// exactly as it would across machines.
//
// The physical testbed is unavailable; what this preserves is every
// code path of the system under study. Only the *status numbers* are
// synthesised, calibrated to the paper's hardware (bogomips and RAM
// from Table 5.1, relative matrix-program speeds read off Fig 5.2,
// where the P3-866 and P4-2.4 boxes beat the P4 1.6–1.8 ones).
package testbed

import (
	"context"
	"fmt"
	"net"
	"time"

	"smartsock/internal/chaos"
	"smartsock/internal/core"
	"smartsock/internal/loop"
	"smartsock/internal/monitor"
	"smartsock/internal/netbatch"
	"smartsock/internal/netmon"
	"smartsock/internal/obs"
	"smartsock/internal/overload"
	"smartsock/internal/probe"
	"smartsock/internal/secmon"
	"smartsock/internal/simnet"
	"smartsock/internal/status"
	"smartsock/internal/store"
	"smartsock/internal/sysinfo"
	"smartsock/internal/transport"
	"smartsock/internal/wizard"
)

// Machine describes one testbed host (Table 5.1) plus the calibration
// this reproduction adds.
type Machine struct {
	Name     string
	CPU      string
	Bogomips float64
	RAMMB    uint64
	OS       string
	// Speed is the host's relative throughput on the thesis's matrix
	// program, read off the Fig 5.2 benchmark: 1.0 for the P3-866
	// class. Fig 5.2's counter-intuitive finding — the P3-866 and
	// P4-2.4 beat the P4 1.6–1.8 series for this program — is encoded
	// here, not derived from clock speed.
	Speed float64
	// Group is the host's server group in the Fig 5.1 topology, the
	// unit network monitors measure between.
	Group string
}

// Machines returns the 11 testbed hosts of Table 5.1.
func Machines() []Machine {
	return []Machine{
		{Name: "sagit", CPU: "P3 866MHz", Bogomips: 1730.15, RAMMB: 128, OS: "Debian Linux 3.0r2", Speed: 1.00, Group: "campus"},
		{Name: "dalmatian", CPU: "P4 2.4GHz", Bogomips: 4771.02, RAMMB: 512, OS: "Redhat Linux 8.0", Speed: 1.30, Group: "lab"},
		{Name: "mimas", CPU: "P4 1.7GHz", Bogomips: 3394.76, RAMMB: 192, OS: "Redhat Linux 9.0", Speed: 0.58, Group: "group-1"},
		{Name: "telesto", CPU: "P4 1.6GHz", Bogomips: 3185.04, RAMMB: 128, OS: "Redhat Linux 7.3", Speed: 0.52, Group: "group-1"},
		{Name: "lhost", CPU: "P3 866MHz", Bogomips: 1730.15, RAMMB: 128, OS: "Redhat Linux 9.0", Speed: 1.00, Group: "group-1"},
		{Name: "helene", CPU: "P4 1.7GHz", Bogomips: 3394.76, RAMMB: 256, OS: "Redhat Linux 9.0", Speed: 0.58, Group: "lab"},
		{Name: "phoebe", CPU: "P4 1.7GHz", Bogomips: 3394.76, RAMMB: 256, OS: "Redhat Linux 9.0", Speed: 0.58, Group: "lab"},
		{Name: "calypso", CPU: "P4 1.7GHz", Bogomips: 3394.76, RAMMB: 256, OS: "Redhat Linux 9.0", Speed: 0.58, Group: "lab"},
		{Name: "dione", CPU: "P4 2.4GHz", Bogomips: 4771.02, RAMMB: 512, OS: "Redhat Linux 7.3", Speed: 1.30, Group: "group-2"},
		{Name: "titan-x", CPU: "P4 1.7GHz", Bogomips: 3394.76, RAMMB: 256, OS: "Redhat Linux 7.3", Speed: 0.58, Group: "group-2"},
		{Name: "pandora-x", CPU: "P4 1.8GHz", Bogomips: 3591.37, RAMMB: 256, OS: "Redhat Linux 9.0", Speed: 0.62, Group: "group-2"},
	}
}

// MachineByName finds a testbed machine.
func MachineByName(name string) (Machine, bool) {
	for _, m := range Machines() {
		if m.Name == name {
			return m, true
		}
	}
	return Machine{}, false
}

// Options configures a cluster boot.
type Options struct {
	// Machines to include; nil means all of Table 5.1.
	Machines []Machine
	// ProbeInterval for server probes; defaults to 50 ms (the thesis
	// uses 2–10 s; the simulated clock is just wall time, so shorter
	// intervals keep experiments quick without changing behaviour).
	ProbeInterval time.Duration
	// Distributed selects the passive-transmitter / pull-on-request
	// mode (§3.5.1); false is centralized push.
	Distributed bool
	// GroupPaths maps group names to probe-able paths from the client
	// monitor to each group; netmon measures them. Nil means no
	// network monitor (single-site deployments).
	GroupPaths map[string]*simnet.Path
	// SecurityLevels seeds the security monitor; nil means every host
	// gets level 3.
	SecurityLevels []status.SecLevel
	// LocalMonitor names the client's network monitor. Defaults to
	// "netmon-local".
	LocalMonitor string
	// MissedIntervals before the system monitor declares a silent
	// server failed; 0 keeps the monitor's default of 3. Chaos tests
	// use 2 so eviction happens within two status epochs.
	MissedIntervals int
	// ExpireAll additionally ages network and security records out of
	// the monitor-side database (see monitor.Config.ExpireAll).
	ExpireAll bool
	// MaxStatusAge makes the wizard's selector skip server records
	// older than this, evicting dead servers from candidate lists even
	// between monitor expiry sweeps. Zero disables the filter.
	MaxStatusAge time.Duration
	// ProbeFaults, when set, wraps every probe's report socket so
	// probe→monitor datagrams suffer the injector's loss/dup/delay
	// schedule. The monitor side is untouched — faults are send-side,
	// like a real lossy link.
	ProbeFaults *chaos.Injector
	// TxFaults, when set, wraps the transmitter→receiver TCP stream
	// (centralized push) or the receiver's pull connections
	// (distributed) in a chaos.StreamConn for stall/reset injection.
	TxFaults *chaos.Injector
	// Overload, when set, threads an admission-control gate through
	// the wizard's serve path and the receiver's bypass accounting —
	// the same wiring wizardd does from its -max-queue/-rate-limit
	// flags. Nil (or a disabled gate) keeps the unprotected path.
	Overload *overload.Gate
	// Obs, when set, registers every component's metrics (transport,
	// monitor, wizard, selector, both databases) in one registry, the
	// same wiring the daemons use under -debug. Nil detaches them.
	Obs *obs.Registry
}

// Cluster is a running in-process deployment.
type Cluster struct {
	// DB is the monitor-machine database (written by monitors).
	DB *store.DB
	// WizardDB is the wizard-machine replica (written by the
	// receiver).
	WizardDB *store.DB
	// Sources are the per-host synthetic status sources; experiments
	// mutate them to create load.
	Sources map[string]*sysinfo.Synthetic
	// Machines in this cluster, by name.
	Machines map[string]Machine
	// NetMon is the client-side network monitor (nil without
	// GroupPaths).
	NetMon *netmon.Monitor
	// Tx and Recv expose the transport pair, so experiments and chaos
	// tests can read push/delta/resync counters.
	Tx   *transport.Transmitter
	Recv *transport.Receiver

	wizard     *wizard.Wizard
	sysMonitor *monitor.Monitor
	group      *loop.Group        // every component; Close waits for them
	cancel     context.CancelFunc // ends the group: the teardown
	probeEvery time.Duration
	probeDial  func(network, addr string) (net.Conn, error)
	secHosts   int                           // hosts the security monitor levels
	hostCancel map[string]context.CancelFunc // written by Boot only
}

// Boot assembles and starts the full pipeline.
func Boot(opts Options) (*Cluster, error) {
	machines := opts.Machines
	if machines == nil {
		machines = Machines()
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 50 * time.Millisecond
	}
	if opts.LocalMonitor == "" {
		opts.LocalMonitor = "netmon-local"
	}

	ctx, cancel := context.WithCancel(context.Background())
	g, ctx := loop.NewGroup(ctx)
	c := &Cluster{
		DB:         store.New(),
		WizardDB:   store.New(),
		Sources:    make(map[string]*sysinfo.Synthetic, len(machines)),
		Machines:   make(map[string]Machine, len(machines)),
		group:      g,
		cancel:     cancel,
		probeEvery: opts.ProbeInterval,
		hostCancel: make(map[string]context.CancelFunc, len(machines)),
	}
	if in := opts.ProbeFaults; in != nil {
		c.probeDial = func(network, addr string) (net.Conn, error) {
			conn, err := net.Dial(network, addr)
			if err != nil {
				return nil, err
			}
			return in.WrapConn(conn), nil
		}
	}
	fail := func(err error) (*Cluster, error) {
		_ = c.Close()
		return nil, err
	}

	// System monitor + probes (§3.2).
	c.DB.RegisterObs(opts.Obs, "monitor")
	c.WizardDB.RegisterObs(opts.Obs, "wizard")
	sysMon, err := monitor.New(monitor.Config{
		Addr:            "127.0.0.1:0",
		DB:              c.DB,
		Interval:        opts.ProbeInterval,
		MissedIntervals: opts.MissedIntervals,
		ExpireAll:       opts.ExpireAll,
		Batch:           netbatch.DefaultBatch,
		Obs:             opts.Obs,
	})
	if err != nil {
		return fail(err)
	}
	c.sysMonitor = sysMon
	g.Go("system monitor", sysMon.Run)
	for _, m := range machines {
		src := sysinfo.NewSynthetic(sysinfo.Idle(m.Name, m.Bogomips, m.RAMMB))
		c.Sources[m.Name] = src
		c.Machines[m.Name] = m
		if err := c.startProbe(ctx, m.Name); err != nil {
			return fail(err)
		}
	}

	// Network monitor (§3.3.3).
	if len(opts.GroupPaths) > 0 {
		peers := make([]netmon.Peer, 0, len(opts.GroupPaths))
		for group, path := range opts.GroupPaths {
			peers = append(peers, netmon.Peer{Name: group, Prober: path, MTU: path.MTU()})
		}
		nm, err := netmon.New(netmon.Config{
			Name:     opts.LocalMonitor,
			Peers:    peers,
			DB:       c.DB,
			Interval: opts.ProbeInterval,
		})
		if err != nil {
			return fail(err)
		}
		c.NetMon = nm
		g.Go("network monitor", nm.Run)
	}

	// Security monitor (§3.4).
	levels := opts.SecurityLevels
	if levels == nil {
		for _, m := range machines {
			levels = append(levels, status.SecLevel{Host: m.Name, Level: 3})
		}
	}
	hosts := make(map[string]bool, len(levels))
	for _, l := range levels {
		hosts[l.Host] = true
	}
	c.secHosts = len(hosts)
	sm, err := secmon.New(secmon.Config{
		Agent:    secmon.StaticAgent(levels),
		DB:       c.DB,
		Interval: opts.ProbeInterval,
	})
	if err != nil {
		return fail(err)
	}
	g.Go("security monitor", sm.Run)

	// Transmitter → receiver (§3.5), then the wizard (§3.6).
	tx, err := transport.NewTransmitterObs(c.DB, nil, opts.Obs)
	if err != nil {
		return fail(err)
	}
	recv, err := transport.NewReceiverObs(c.WizardDB, "127.0.0.1:0", nil, opts.Obs)
	if err != nil {
		return fail(err)
	}
	recv.Overload = opts.Overload
	c.Tx, c.Recv = tx, recv
	// In distributed mode nothing runs the receiver, so nothing else
	// closes its listener and the pull connections it keeps.
	g.Close(recv)
	if in := opts.TxFaults; in != nil {
		streamDial := func(network, addr string) (net.Conn, error) {
			conn, err := net.DialTimeout(network, addr, 2*time.Second)
			if err != nil {
				return nil, err
			}
			return in.WrapStream(conn), nil
		}
		tx.Dial = streamDial
		recv.Dial = streamDial
	}
	var update wizard.UpdateFunc
	if opts.Distributed {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		g.Go("transmitter", func(ctx context.Context) error { return tx.ServePassive(ctx, ln) })
		txAddr := ln.Addr().String()
		update = func(context.Context) error {
			return recv.PullFrom([]string{txAddr}, 2*time.Second)
		}
	} else {
		g.Go("receiver", recv.Run)
		g.Go("transmitter", func(ctx context.Context) error { return tx.RunActive(ctx, recv.Addr(), opts.ProbeInterval) })
	}

	groupOf := func(host string) string {
		if m, ok := c.Machines[host]; ok {
			return m.Group
		}
		return ""
	}
	sel, err := core.New(c.WizardDB, core.Config{
		LocalMonitor: opts.LocalMonitor,
		GroupOf:      groupOf,
		MaxStatusAge: opts.MaxStatusAge,
		Obs:          opts.Obs,
	})
	if err != nil {
		return fail(err)
	}
	wz, err := wizard.New(wizard.Config{
		Addr:     "127.0.0.1:0",
		Selector: sel,
		Update:   update,
		Overload: opts.Overload,
		Batch:    netbatch.DefaultBatch,
		Obs:      opts.Obs,
	})
	if err != nil {
		return fail(err)
	}
	c.wizard = wz
	g.Go("wizard", wz.Run)
	return c, nil
}

// startProbe launches the named host's probe under a per-host context
// derived from ctx, so a single virtual host can crash without touching
// the rest of the cluster.
func (c *Cluster) startProbe(ctx context.Context, name string) error {
	src, ok := c.Sources[name]
	if !ok {
		return fmt.Errorf("testbed: unknown host %q", name)
	}
	p, err := probe.New(probe.Config{
		Source:   src,
		Monitor:  c.sysMonitor.Addr(),
		Interval: c.probeEvery,
		Dial:     c.probeDial,
	})
	if err != nil {
		return err
	}
	hostCtx, hostCancel := context.WithCancel(ctx)
	c.hostCancel[name] = hostCancel
	c.group.Go("probe "+name, func(ctx context.Context) error {
		err := p.Run(hostCtx)
		if hostCtx.Err() != nil {
			<-ctx.Done() // a crash, not a failure: the host stays down until teardown
		}
		return err
	})
	return nil
}

// CrashHost stops the named host's probe, simulating a machine that
// died without deregistering: its last report ages in the databases
// until the monitor's expiry sweep (or the selector's MaxStatusAge
// filter) removes it. Crashing a crashed host is a no-op.
func (c *Cluster) CrashHost(name string) error {
	cancelProbe, ok := c.hostCancel[name]
	if !ok {
		return fmt.Errorf("testbed: unknown host %q", name)
	}
	cancelProbe()
	return nil
}

// WizardAddr is the UDP address clients send requests to.
func (c *Cluster) WizardAddr() string { return c.wizard.Addr() }

// Wizard exposes the running request handler, so experiments can read
// its counters and cache statistics.
func (c *Cluster) Wizard() *wizard.Wizard { return c.wizard }

// Monitor exposes the system monitor, so chaos tests can reconcile
// its report counter against the obs registry.
func (c *Cluster) Monitor() *monitor.Monitor { return c.sysMonitor }

// Close stops every component and waits for each to exit: a cluster's
// probers tick on millisecond intervals, and winding them down in the
// background leaked that timer load into the next experiment's
// measurements (the timing-model comparisons went flaky under
// -shuffle). A component that stopped before Close is its error, named;
// a crashed host's probe is not one.
func (c *Cluster) Close() error {
	c.cancel()
	return c.group.Wait()
}

// WaitSettled blocks until the wizard-side database holds n server
// records (and, when a netmon runs, at least one probe round is
// done and the wizard side has every metric it produced — an epoch
// shipped mid-round carries one group's and not the other's) and the
// security level of every host the security monitor levels (it writes
// them one at a time, so an epoch may carry some and not others), or
// the context expires — the "pipeline warmed up" barrier experiments
// start from.
func (c *Cluster) WaitSettled(ctx context.Context, n int) error {
	for {
		if c.WizardDB.SysLen() >= n && (c.NetMon == nil || c.NetMon.Rounds() > 0) {
			if m := len(c.DB.Net()); c.NetMon == nil || m > 0 && len(c.WizardDB.Net()) >= m {
				if len(c.WizardDB.Sec()) >= c.secHosts {
					return nil
				}
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("testbed: pipeline not settled: %d/%d servers, err %w",
				c.WizardDB.SysLen(), n, ctx.Err())
		case <-time.After(c.probeEvery / 2):
		}
	}
}
