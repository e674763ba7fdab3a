// Command sysmond is the system status monitor of §3.2.2: it ingests
// probe reports on UDP port 1111 (the thesis's assignment, Table
// 4.2), maintains the server status database, expires silent servers
// and feeds the local transmitter.
//
// For a complete single-machine monitor node, sysmond can also host
// the network monitor, security monitor and transmitter; see the
// flags below. Components left unconfigured simply do not start; one
// that stops, or fails to start, ends the process with its name, and
// a signal stops every component and waits for each to close what it
// holds before the process exits.
//
//	sysmond -listen :1111 -receiver wizard.lab:1121 \
//	        -seclog /etc/smartsock/security.log \
//	        -netmon netmon-1 -peer netmon-2=peer2.lab:1112
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"smartsock/internal/bwest"
	"smartsock/internal/loop"
	"smartsock/internal/monitor"
	"smartsock/internal/netbatch"
	"smartsock/internal/netmon"
	"smartsock/internal/obs"
	"smartsock/internal/secmon"
	"smartsock/internal/store"
	"smartsock/internal/transport"
)

type peerList []string

func (p *peerList) String() string     { return strings.Join(*p, ",") }
func (p *peerList) Set(v string) error { *p = append(*p, v); return nil }

var (
	listen     = flag.String("listen", ":1111", "UDP address for probe reports")
	interval   = flag.Duration("interval", 5*time.Second, "expected probe interval")
	missed     = flag.Int("missed", 3, "intervals before a silent server expires")
	enableTCP  = flag.Bool("tcp", false, "also accept framed TCP probe reports")
	receiver   = flag.String("receiver", "", "receiver address for centralized push (empty: passive mode)")
	passive    = flag.String("passive", "", "TCP listen address for distributed-mode pulls (e.g. :1110)")
	seclog     = flag.String("seclog", "", "security log file for the security monitor")
	netmonName = flag.String("netmon", "", "this node's network monitor name (enables netmon)")
	shards     = flag.Int("shards", 1, "SO_REUSEPORT listener sockets for the report port (Linux; 1: single socket)")
	compat     = flag.Bool("compat", false, "thesis wire: full snapshot every epoch, no deltas")
	debugAddr  = flag.String("debug", "", "HTTP metrics endpoint address, e.g. 127.0.0.1:6061 (empty: disabled)")
	peers      peerList
	logger     = log.New(os.Stderr, "sysmond: ", log.LstdFlags)
)

func main() {
	flag.Var(&peers, "peer", "network peer as name=echoAddr (repeatable)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		logger.Fatal(err)
	}
}

// run serves until ctx ends or a component stops, then waits for all.
func run(ctx context.Context) (err error) {
	ctx, stop := context.WithCancel(ctx)
	g, ctx := loop.NewGroup(ctx)
	defer func() { stop(); err = cmp.Or(err, g.Wait()) }()

	db := store.New()
	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		dbg, err := obs.NewDebugServer(*debugAddr, reg)
		if err != nil {
			return err
		}
		g.Go("debug endpoint", dbg.Run)
		logger.Printf("debug metrics on http://%s/metrics", dbg.Addr())
	}
	db.RegisterObs(reg, "monitor")

	mon, err := monitor.New(monitor.Config{
		Addr:            *listen,
		DB:              db,
		Interval:        *interval,
		MissedIntervals: *missed,
		EnableTCP:       *enableTCP,
		Batch:           netbatch.DefaultBatch,
		Shards:          *shards,
		Logger:          logger,
		Obs:             reg,
	})
	if err != nil {
		return err
	}
	g.Go("system monitor", mon.Run)
	logger.Printf("system monitor on %s (%d shard(s), batch %d)", mon.Addr(), mon.Shards(), netbatch.DefaultBatch)

	if *seclog != "" {
		sm, err := secmon.New(secmon.Config{
			Agent:  secmon.LogAgent{Path: *seclog},
			DB:     db,
			Logger: logger,
		})
		if err != nil {
			return err
		}
		g.Go("security monitor", sm.Run)
		logger.Printf("security monitor reading %s", *seclog)
	}

	if *netmonName != "" && len(peers) > 0 {
		var nps []netmon.Peer
		for _, spec := range peers {
			name, addr, ok := strings.Cut(spec, "=")
			if !ok {
				return fmt.Errorf("bad -peer %q, want name=addr", spec)
			}
			prober, err := bwest.NewUDPProber(addr, time.Second)
			if err != nil {
				return fmt.Errorf("peer %s: %w", name, err)
			}
			g.Close(prober)
			nps = append(nps, netmon.Peer{Name: name, Prober: prober, MTU: 1500})
		}
		nm, err := netmon.New(netmon.Config{
			Name:   *netmonName,
			Peers:  nps,
			DB:     db,
			Logger: logger,
		})
		if err != nil {
			return err
		}
		g.Go("network monitor", nm.Run)
		logger.Printf("network monitor %s probing %d peers", *netmonName, len(nps))
	}

	tx, err := transport.NewTransmitterObs(db, logger, reg)
	if err != nil {
		return err
	}
	// The thesis preset is the wire alone; ingest is invisible to a peer.
	tx.Compat = *compat
	switch {
	case *receiver != "":
		logger.Printf("centralized mode: pushing to %s", *receiver)
		g.Go("transmitter", func(ctx context.Context) error { return tx.RunActive(ctx, *receiver, *interval) })
	case *passive != "":
		ln, err := net.Listen("tcp", *passive)
		if err != nil {
			return fmt.Errorf("transmitter: %w", err)
		}
		logger.Printf("distributed mode: serving pulls on %s", ln.Addr())
		g.Go("transmitter", func(ctx context.Context) error { return tx.ServePassive(ctx, ln) })
	default:
		logger.Print("no -receiver/-passive: transmitter idle (monitor-only node)")
	}
	<-ctx.Done()
	return nil
}
