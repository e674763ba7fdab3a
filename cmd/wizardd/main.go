// Command wizardd runs the wizard machine of §3.6: a receiver that
// mirrors monitor databases (port 1121 in the thesis, Table 4.2) and
// the wizard answering client requests on UDP (port 1120).
//
// Centralized mode (default): transmitters push to -receiver-listen.
// Distributed mode: pass every passive transmitter with -pull; the
// wizard refreshes from them when a request arrives.
//
//	wizardd -listen :1120 -receiver-listen :1121
//	wizardd -listen :1120 -pull mon1.lab:1110 -pull mon2.lab:1110
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"smartsock/internal/core"
	"smartsock/internal/netbatch"
	"smartsock/internal/obs"
	"smartsock/internal/overload"
	"smartsock/internal/store"
	"smartsock/internal/transport"
	"smartsock/internal/wizard"
)

type addrList []string

func (a *addrList) String() string     { return strings.Join(*a, ",") }
func (a *addrList) Set(v string) error { *a = append(*a, v); return nil }

func main() {
	var (
		listen      = flag.String("listen", ":1120", "UDP address for client requests")
		recvListen  = flag.String("receiver-listen", ":1121", "TCP address for transmitter pushes")
		servicePort = flag.Int("service-port", 0, "port appended to selected hosts (0: none)")
		localMon    = flag.String("local-monitor", "", "name of the client-side network monitor")
		groupsFlag  = flag.String("groups", "", "host→group map as host=group,host=group")
		tplFile     = flag.String("templates", "", "requirement template file ([name] sections, §3.6.1)")
		workers     = flag.Int("workers", 1, "request-answering loops (at least one runs per shard); 1 answers sequentially, as the thesis does")
		udpBatch    = flag.Int("udp-batch", netbatch.DefaultBatch, "request datagrams per socket syscall (recvmmsg/sendmmsg; 1: one syscall per datagram)")
		shards      = flag.Int("shards", 1, "SO_REUSEPORT listener sockets for the request port (Linux; 1: single socket)")
		maxQueue    = flag.Int("max-queue", 1024, "per-shard ingress queue bound in requests (0: pass-through admission, nothing is ever shed)")
		rateLimit   = flag.Float64("rate-limit", 0, "per-source admitted requests/sec (0: no per-source limit)")
		compat      = flag.Bool("compat", false, "thesis-faithful mode: sequential serving, no requirement cache, unbatched unsharded socket, full-snapshot transport, no selection planner, no overload protection")
		debugAddr   = flag.String("debug", "", "HTTP metrics endpoint address, e.g. 127.0.0.1:6060 (empty: disabled)")
		pulls       addrList
	)
	flag.Var(&pulls, "pull", "passive transmitter to pull from on each request (repeatable; enables distributed mode)")
	flag.Parse()
	logger := log.New(os.Stderr, "wizardd: ", log.LstdFlags)
	// Not flags: the packages' defaults (0) serve every deployment, and
	// the only other value anything uses is the one the preset sets.
	cacheSize, planThreshold := 0, 0
	if *compat {
		// The thesis preset, whole and in one place: applied to the parsed
		// flags before anything is built, so nothing below branches on
		// the mode. §3.6.1 verbatim — one sequential handler on one
		// socket, one datagram per syscall, every requirement parsed on
		// arrival, the whole table walked per request — and pass-through
		// admission: the thesis wizard never sheds, every request waits
		// its turn in the kernel socket buffer. What no flag says — no
		// requirement cache, no selection planner, and the thesis pull
		// protocol with whole-table loads — is handed on as values.
		*workers, *shards, *udpBatch = 1, 1, 1
		cacheSize, planThreshold = -1, -1
		*maxQueue, *rateLimit = 0, 0
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
	db.RegisterObs(reg, "wizard")

	// Built even when disabled (-max-queue 0) so the overload_* metrics
	// always exist on the debug endpoint.
	gate := overload.New(overload.Config{
		MaxQueue: *maxQueue,
		Rate:     *rateLimit,
		Obs:      reg,
	})

	recv, err := transport.NewReceiverObs(db, *recvListen, logger, reg)
	if err != nil {
		logger.Fatal(err)
	}
	// Set before the update hook captures the receiver.
	recv.Compat = *compat
	// Transport frames carry the data the wizard answers from; they are
	// priority traffic and bypass shedding (audited via overload_bypass).
	recv.Overload = gate
	var update wizard.UpdateFunc
	if len(pulls) > 0 {
		// Nothing runs the receiver in this mode, so nothing else closes
		// its listener and the pull connections it keeps.
		defer recv.Close()
		update = func(context.Context) error { return recv.PullFrom(pulls, 2*time.Second) }
		logger.Printf("distributed mode: pulling from %v per request", pulls)
	} else {
		go recv.Run(ctx)
		logger.Printf("centralized mode: receiver on %s", recv.Addr())
	}

	groups := map[string]string{}
	if *groupsFlag != "" {
		for _, kv := range strings.Split(*groupsFlag, ",") {
			host, group, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				logger.Fatalf("bad -groups entry %q, want host=group", kv)
			}
			groups[host] = group
		}
	}
	var groupOf func(string) string
	if len(groups) > 0 {
		groupOf = func(h string) string { return groups[h] }
	}
	sel, err := core.New(db, core.Config{
		LocalMonitor:  *localMon,
		GroupOf:       groupOf,
		ServicePort:   *servicePort,
		PlanThreshold: planThreshold,
		Obs:           reg,
	})
	if err != nil {
		logger.Fatal(err)
	}
	var templates map[string]string
	if *tplFile != "" {
		templates, err = wizard.LoadTemplates(*tplFile)
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("loaded %d requirement templates from %s", len(templates), *tplFile)
	}
	wz, err := wizard.New(wizard.Config{
		Addr:      *listen,
		Selector:  sel,
		Update:    update,
		Templates: templates,
		Logger:    logger,
		Workers:   *workers,
		CacheSize: cacheSize,
		Batch:     *udpBatch,
		Shards:    *shards,
		Overload:  gate,
		Obs:       reg,
	})
	if err != nil {
		logger.Fatal(err)
	}
	mode := "pass-through admission"
	if gate.Enabled() {
		mode = fmt.Sprintf("max-queue %d, codel-target %v", *maxQueue, gate.Target())
		if *rateLimit > 0 {
			mode += fmt.Sprintf(", rate-limit %g/s", *rateLimit)
		}
	}
	logger.Printf("wizard on %s (%d worker(s), %d shard(s), batch %d; %s)",
		wz.Addr(), max(*workers, wz.Shards()), wz.Shards(), *udpBatch, mode)
	go wz.Run(ctx)
	<-ctx.Done()
}
