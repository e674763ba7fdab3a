// Gridmode: the large-scale deployment of §3.5.1 — multiple server
// groups, each with its own monitor machine and *passive* transmitter,
// and a wizard that pulls fresh status only when a request arrives.
// This is the configuration the thesis aims at GRID environments,
// where server groups are sparse and standing status traffic would be
// wasted.
//
// The example stands up two complete monitor sites (probes + system
// monitor + passive transmitter) and one wizard site (receiver +
// wizard), all as real sockets in one process, then issues requests
// and shows that (a) no status moves before the first request and
// (b) each request sees up-to-the-moment load.
//
//	go run ./examples/gridmode
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
	"smartsock/internal/monitor"
	"smartsock/internal/probe"
	"smartsock/internal/store"
	"smartsock/internal/sysinfo"
	"smartsock/internal/transport"
	"smartsock/internal/wizard"

	"smartsock/internal/core"
	"smartsock/internal/workload"
)

// site is one server group's monitor machine.
type site struct {
	name    string
	db      *store.DB
	txAddr  string
	sources map[string]*sysinfo.Synthetic
}

// startSite boots probes, a system monitor and a passive transmitter
// for one group of servers, each a member of g.
func startSite(g *loop.Group, name string, servers map[string]float64) (*site, error) {
	s := &site{name: name, db: store.New(), sources: map[string]*sysinfo.Synthetic{}}
	mon, err := monitor.New(monitor.Config{Addr: "127.0.0.1:0", DB: s.db, Interval: 50 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	g.Go(name+" monitor", mon.Run)
	for server, bogomips := range servers {
		src := sysinfo.NewSynthetic(sysinfo.Idle(server, bogomips, 256))
		s.sources[server] = src
		p, err := probe.New(probe.Config{Source: src, Monitor: mon.Addr(), Interval: 50 * time.Millisecond})
		if err != nil {
			return nil, err
		}
		g.Go(name+" probe "+server, p.Run)
	}
	tx, err := transport.NewTransmitterObs(s.db, nil, nil)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g.Go(name+" transmitter", func(ctx context.Context) error { return tx.ServePassive(ctx, ln) })
	s.txAddr = ln.Addr().String()
	return s, nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	ctx, cancel := context.WithCancel(context.Background())
	g, ctx := loop.NewGroup(ctx)
	defer func() { cancel(); err = cmp.Or(g.Wait(), err) }()

	// Two server groups in "different cities".
	siteA, err := startSite(g, "site-A", map[string]float64{
		"a-fast": 4771, "a-slow": 1730,
	})
	if err != nil {
		return err
	}
	siteB, err := startSite(g, "site-B", map[string]float64{
		"b-fast": 4771, "b-mid": 3394,
	})
	if err != nil {
		return err
	}

	// Wizard site: receiver + wizard in distributed (pull) mode.
	wizDB := store.New()
	recv, err := transport.NewReceiverObs(wizDB, "127.0.0.1:0", nil, nil)
	if err != nil {
		return err
	}
	g.Close(recv) // pull mode: nothing runs the receiver, so nothing else closes it
	transmitters := []string{siteA.txAddr, siteB.txAddr}
	sel, err := core.New(wizDB, core.Config{})
	if err != nil {
		return err
	}
	wz, err := wizard.New(wizard.Config{
		Addr:     "127.0.0.1:0",
		Selector: sel,
		Update: func(context.Context) error {
			return recv.PullFrom(transmitters, 2*time.Second)
		},
	})
	if err != nil {
		return err
	}
	g.Go("wizard", wz.Run)

	// Let the probes populate the *site* databases.
	deadline := time.Now().Add(10 * time.Second)
	for (siteA.db.SysLen() < 2 || siteB.db.SysLen() < 2) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("site databases: A=%d servers, B=%d servers\n", siteA.db.SysLen(), siteB.db.SysLen())
	fmt.Printf("wizard database before any request: %d servers (distributed mode is silent when idle)\n",
		wizDB.SysLen())

	client, err := smartsock.NewClient(wz.Addr(), nil)
	if err != nil {
		return err
	}
	servers, err := client.RequestServers(ctx, "host_cpu_bogomips > 4000", 2)
	if err != nil {
		return err
	}
	fmt.Printf("request 1 (bogomips > 4000): %v   [pull merged both sites: %d servers]\n",
		servers, wizDB.SysLen())

	// Load hits a-fast; the very next request must avoid it, because
	// distributed mode pulls fresh status per request.
	release := workload.Apply(siteA.sources["a-fast"], workload.SuperPI())
	defer release()
	time.Sleep(150 * time.Millisecond) // a few probe intervals at site A

	servers, err = client.RequestServers(ctx, `
host_cpu_bogomips > 4000
host_system_load1 < 0.5
`, 1)
	if err != nil {
		return err
	}
	fmt.Printf("request 2 (after loading a-fast): %v   [fresh pull saw the new load]\n", servers)
	if len(servers) == 1 && servers[0] == "b-fast" {
		fmt.Println("OK: the wizard routed around the newly busy server without any standing traffic")
	}
	return nil
}
