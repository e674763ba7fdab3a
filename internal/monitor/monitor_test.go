package monitor

import (
	"context"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"smartsock/internal/obs"
	"smartsock/internal/probe"
	"smartsock/internal/status"
	"smartsock/internal/store"
	"smartsock/internal/sysinfo"
)

func startMonitor(t *testing.T, cfg Config) (*Monitor, *store.DB, context.CancelFunc) {
	t.Helper()
	db := store.New()
	cfg.DB = db
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go m.Run(ctx)
	t.Cleanup(cancel)
	return m, db, cancel
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestMonitorRequiresDB(t *testing.T) {
	if _, err := New(Config{Addr: "127.0.0.1:0"}); err == nil {
		t.Error("New accepted a nil DB")
	}
}

func TestProbeToMonitorUDP(t *testing.T) {
	m, db, _ := startMonitor(t, Config{Interval: 50 * time.Millisecond})

	src := sysinfo.NewSynthetic(sysinfo.Idle("helene", 3394.76, 256))
	p, err := probe.New(probe.Config{
		Source:   src,
		Monitor:  m.Addr(),
		Interval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)

	waitFor(t, 2*time.Second, func() bool { return db.SysLen() == 1 })
	rec, ok := db.GetSys("helene")
	if !ok {
		t.Fatal("helene not in sysdb")
	}
	if rec.Status.Bogomips != 3394.76 {
		t.Errorf("Bogomips = %v", rec.Status.Bogomips)
	}
	if m.Received() == 0 {
		t.Error("monitor counted no reports")
	}
}

func TestProbeToMonitorTCP(t *testing.T) {
	m, db, _ := startMonitor(t, Config{Interval: 50 * time.Millisecond, EnableTCP: true})

	src := sysinfo.NewSynthetic(sysinfo.Idle("dione", 4771.02, 512))
	p, err := probe.New(probe.Config{
		Source:    src,
		Monitor:   m.Addr(),
		Interval:  20 * time.Millisecond,
		Transport: probe.TCP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReportOnce(); err != nil {
		t.Fatalf("ReportOnce over TCP: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool { return db.SysLen() == 1 })
	if _, ok := db.GetSys("dione"); !ok {
		t.Error("dione not in sysdb after TCP report")
	}
}

func TestMonitorExpiresSilentProbe(t *testing.T) {
	reg := obs.NewRegistry()
	m, db, _ := startMonitor(t, Config{
		Interval:        20 * time.Millisecond,
		MissedIntervals: 3,
		Obs:             reg,
	})
	src := sysinfo.NewSynthetic(sysinfo.Idle("ghost", 1000, 128))
	p, err := probe.New(probe.Config{Source: src, Monitor: m.Addr(), Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReportOnce(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return db.SysLen() == 1 })
	// Probe goes silent; after 3 intervals (60 ms) + expiry sweep, the
	// record must vanish (§3.2.2 / §4.1).
	waitFor(t, 2*time.Second, func() bool { return db.SysLen() == 0 })
	if reg.Snapshot().Counters["monitor_expired"] == 0 {
		t.Error("monitor did not count the expiry")
	}
}

func TestMonitorUpdatesExistingRecord(t *testing.T) {
	m, db, _ := startMonitor(t, Config{Interval: time.Second})
	src := sysinfo.NewSynthetic(sysinfo.Idle("worker", 2000, 256))
	p, err := probe.New(probe.Config{Source: src, Monitor: m.Addr(), Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReportOnce(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return db.SysLen() == 1 })

	src.Update(func(s *status.ServerStatus) { s.Load1 = 7.5 })
	if err := p.ReportOnce(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		rec, ok := db.GetSys("worker")
		return ok && rec.Status.Load1 == 7.5
	})
	if db.SysLen() != 1 {
		t.Errorf("SysLen = %d, want 1 (update, not insert)", db.SysLen())
	}
}

func TestMonitorDropsGarbageDatagrams(t *testing.T) {
	m, db, _ := startMonitor(t, Config{Interval: time.Second})
	conn, err := net.Dial("udp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("not a report"))
	conn.Write(nil)
	// A valid report afterwards still lands.
	s := sysinfo.Idle("ok", 1000, 64)
	conn.Write(status.EncodeReport(&s))
	waitFor(t, 2*time.Second, func() bool { return db.SysLen() == 1 })
	if m.Received() != 1 {
		t.Errorf("Received = %d, want 1", m.Received())
	}
}

func TestProbeValidation(t *testing.T) {
	if _, err := probe.New(probe.Config{Monitor: "x"}); err == nil {
		t.Error("accepted nil source")
	}
	src := sysinfo.NewSynthetic(sysinfo.Idle("a", 1, 1))
	if _, err := probe.New(probe.Config{Source: src}); err == nil {
		t.Error("accepted empty monitor address")
	}
}

func TestMonitorRestartPreservesPipeline(t *testing.T) {
	// UDP reporting is connectionless: a monitor crash and restart on
	// the same port must be invisible to running probes — the
	// fault-tolerance story behind §3.2.2's join/leave-at-any-time.
	db1 := store.New()
	m1, err := New(Config{Addr: "127.0.0.1:0", DB: db1, Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		_ = m1.Run(ctx1)
	}()
	addr := m1.Addr()
	src := sysinfo.NewSynthetic(sysinfo.Idle("steady", 2000, 256))
	p, err := probe.New(probe.Config{Source: src, Monitor: addr, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.ReportOnce(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return db1.SysLen() == 1 })

	// Kill the monitor: Run returns only once its sockets are closed.
	// The probe keeps reporting into the void.
	cancel1()
	<-stopped
	p.ReportOnce() // lost, but must not error fatally on UDP

	// A fresh monitor binds the same port with an empty database.
	db2 := store.New()
	m2, err := New(Config{Addr: addr, DB: db2, Interval: time.Second})
	if err != nil {
		t.Skipf("port reuse raced: %v", err)
	}
	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go m2.Run(ctx)

	// The very next report repopulates it without reconfiguration.
	waitFor(t, 3*time.Second, func() bool {
		p.ReportOnce()
		return db2.SysLen() == 1
	})
}

// TestRunReturnsWithEverythingStopped: "Run returned" has to mean the
// monitor is gone — sockets closed, and the expire loop, the TCP accept
// loop, the handler of a connection a probe still holds open and the
// context watcher all exited — for any number of shards, and whether the
// context ended or the ingest loops did under a live one (then nothing
// else would ever stop them). Descriptors are counted the moment Run has
// returned, once: every close happens before that. A goroutine that
// has just told Run it is done is still a few instructions from dead
// (above baseline in 24 of 2000 returns on two cores), so a goroutine
// count above baseline gets until the deadline to drain — which an
// expire loop waiting on a context nobody cancels never does.
func TestRunReturnsWithEverythingStopped(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		return len(ents)
	}
	if openFDs() < 0 {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	ends := map[string]func(m *Monitor, cancel context.CancelFunc){
		"context cancelled": func(_ *Monitor, cancel context.CancelFunc) { cancel() },
		"ingest sockets closed under a live context": func(m *Monitor, _ context.CancelFunc) {
			for _, s := range m.shards {
				s.Close()
			}
		},
		"one ingest socket failing under a live context": func(m *Monitor, _ context.CancelFunc) {
			m.shards[0].SetReadDeadline(time.Now().Add(-time.Second))
		},
	}
	for name, end := range ends {
		for _, shards := range []int{1, 2} {
			// The first socket of a process also opens the poller's
			// descriptors: have that behind us before counting.
			warm, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			warm.Close()
			goroutines, fds := runtime.NumGoroutine(), openFDs()

			db := store.New()
			m, err := New(Config{Addr: "127.0.0.1:0", DB: db, Interval: time.Second, EnableTCP: true, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			returned := make(chan struct{})
			go func() {
				defer close(returned)
				_ = m.Run(ctx)
			}()
			conn, err := net.Dial("tcp", m.Addr())
			if err != nil {
				t.Fatal(err)
			}
			report := sysinfo.Idle("held-open", 2000, 256)
			if err := status.WriteFrame(conn, status.Frame{Type: status.TypeSystem, Data: status.EncodeReport(&report)}); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 2*time.Second, func() bool { return db.SysLen() == 1 })

			end(m, cancel)
			// The probe's end of the TCP connection is still open: it is
			// this test's to close.
			select {
			case <-returned:
			case <-time.After(5 * time.Second):
				cancel()
				t.Fatalf("%s, %d shards: Run still serving 5 s after the end", name, shards)
			}
			if got := openFDs(); got > fds+1 {
				t.Errorf("%s, %d shards: Run returned with %d descriptors open, %d before it", name, shards, got-1, fds)
			}
			conn.Close()
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s, %d shards: Run returned and left %d goroutines, %d before it", name, shards, runtime.NumGoroutine(), goroutines)
				}
			}
		}
	}
}
