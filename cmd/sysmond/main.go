// Command sysmond is the system status monitor of §3.2.2: it ingests
// probe reports on UDP port 1111 (the thesis's assignment, Table
// 4.2), maintains the server status database, expires silent servers
// and feeds the local transmitter.
//
// For a complete single-machine monitor node, sysmond can also host
// the network monitor, security monitor and transmitter; see the
// flags below. Components left unconfigured simply do not start.
//
//	sysmond -listen :1111 -receiver wizard.lab:1121 \
//	        -seclog /etc/smartsock/security.log \
//	        -netmon netmon-1 -peer netmon-2=peer2.lab:1112
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"smartsock/internal/bwest"
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

func main() {
	var (
		listen     = flag.String("listen", ":1111", "UDP address for probe reports")
		interval   = flag.Duration("interval", 5*time.Second, "expected probe interval")
		missed     = flag.Int("missed", 3, "intervals before a silent server expires")
		enableTCP  = flag.Bool("tcp", false, "also accept framed TCP probe reports")
		receiver   = flag.String("receiver", "", "receiver address for centralized push (empty: passive mode)")
		passive    = flag.String("passive", "", "TCP listen address for distributed-mode pulls (e.g. :1110)")
		seclog     = flag.String("seclog", "", "security log file for the security monitor")
		netmonName = flag.String("netmon", "", "this node's network monitor name (enables netmon)")
		udpBatch   = flag.Int("udp-batch", netbatch.DefaultBatch, "report datagrams per socket syscall (recvmmsg; 1: one syscall per datagram)")
		shards     = flag.Int("shards", 1, "SO_REUSEPORT listener sockets for the report port (Linux; 1: single socket)")
		compat     = flag.Bool("compat", false, "thesis-faithful wire mode: full snapshot every epoch, no deltas, unbatched unsharded ingest")
		debugAddr  = flag.String("debug", "", "HTTP metrics endpoint address, e.g. 127.0.0.1:6061 (empty: disabled)")
		peers      peerList
	)
	flag.Var(&peers, "peer", "network peer as name=echoAddr (repeatable)")
	flag.Parse()
	logger := log.New(os.Stderr, "sysmond: ", log.LstdFlags)
	if *compat {
		// The thesis preset, applied to the parsed flags before anything is
		// built: one datagram per socket syscall on one listener socket, the
		// historical ingest loop. Its wire half (full snapshot every epoch,
		// no deltas) is not a flag and is handed to the transmitter as a value.
		*udpBatch, *shards = 1, 1
	}

	db := store.New()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		dbg, err := obs.NewDebugServer(*debugAddr, reg)
		if err != nil {
			logger.Fatal(err)
		}
		go func() {
			if err := dbg.Run(ctx); err != nil {
				logger.Printf("debug endpoint: %v", err)
			}
		}()
		logger.Printf("debug metrics on http://%s/metrics", dbg.Addr())
	}
	db.RegisterObs(reg, "monitor")

	mon, err := monitor.New(monitor.Config{
		Addr:            *listen,
		DB:              db,
		Interval:        *interval,
		MissedIntervals: *missed,
		EnableTCP:       *enableTCP,
		Batch:           *udpBatch,
		Shards:          *shards,
		Logger:          logger,
		Obs:             reg,
	})
	if err != nil {
		logger.Fatal(err)
	}
	go mon.Run(ctx)
	logger.Printf("system monitor on %s (%d shard(s), batch %d)", mon.Addr(), mon.Shards(), *udpBatch)

	if *seclog != "" {
		sm, err := secmon.New(secmon.Config{
			Agent:  secmon.LogAgent{Path: *seclog},
			DB:     db,
			Logger: logger,
		})
		if err != nil {
			logger.Fatal(err)
		}
		go sm.Run(ctx)
		logger.Printf("security monitor reading %s", *seclog)
	}

	if *netmonName != "" && len(peers) > 0 {
		var nps []netmon.Peer
		for _, spec := range peers {
			name, addr, ok := strings.Cut(spec, "=")
			if !ok {
				logger.Fatalf("bad -peer %q, want name=addr", spec)
			}
			prober, err := bwest.NewUDPProber(addr, time.Second)
			if err != nil {
				logger.Fatalf("peer %s: %v", name, err)
			}
			defer prober.Close()
			nps = append(nps, netmon.Peer{Name: name, Prober: prober, MTU: 1500})
		}
		nm, err := netmon.New(netmon.Config{
			Name:   *netmonName,
			Peers:  nps,
			DB:     db,
			Logger: logger,
		})
		if err != nil {
			logger.Fatal(err)
		}
		go nm.Run(ctx)
		logger.Printf("network monitor %s probing %d peers", *netmonName, len(nps))
	}

	tx, err := transport.NewTransmitterObs(db, logger, reg)
	if err != nil {
		logger.Fatal(err)
	}
	tx.Compat = *compat
	switch {
	case *receiver != "":
		logger.Printf("centralized mode: pushing to %s", *receiver)
		go tx.RunActive(ctx, *receiver, *interval)
	case *passive != "":
		ln, err := net.Listen("tcp", *passive)
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("distributed mode: serving pulls on %s", ln.Addr())
		go tx.ServePassive(ctx, ln)
	default:
		logger.Print("no -receiver/-passive: transmitter idle (monitor-only node)")
	}

	<-ctx.Done()
}
