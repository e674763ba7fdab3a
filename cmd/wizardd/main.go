// Command wizardd runs the wizard machine of §3.6: a receiver that
// mirrors monitor databases (port 1121 in the thesis, Table 4.2) and
// the wizard answering client requests on UDP (port 1120).
//
// Centralized mode (default): transmitters push to -receiver-listen.
// Distributed mode: pass every passive transmitter with -pull; the
// wizard refreshes from them when a request arrives. A component that
// stops (the receiver, the wizard, the -debug endpoint) or fails to
// start ends the process with its name; a signal stops every component
// and waits for each to close what it holds before the process exits.
//
//	wizardd -listen :1120 -receiver-listen :1121
//	wizardd -listen :1120 -pull mon1.lab:1110 -pull mon2.lab:1110
package main

import (
	"cmp"
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
	"smartsock/internal/loop"
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

var (
	listen      = flag.String("listen", ":1120", "UDP address for client requests")
	recvListen  = flag.String("receiver-listen", ":1121", "TCP address for transmitter pushes")
	servicePort = flag.Int("service-port", 0, "port appended to selected hosts (0: none)")
	localMon    = flag.String("local-monitor", "", "name of the client-side network monitor")
	groupsFlag  = flag.String("groups", "", "host→group map as host=group,host=group")
	tplFile     = flag.String("templates", "", "requirement template file ([name] sections, §3.6.1)")
	shards      = flag.Int("shards", 1, "SO_REUSEPORT listener sockets for the request port (Linux; 1: single socket)")
	maxQueue    = flag.Int("max-queue", 1024, "per-shard ingress queue bound in requests (0: pass-through admission, nothing is ever shed)")
	rateLimit   = flag.Float64("rate-limit", 0, "per-source admitted requests/sec (0: no per-source limit)")
	compat      = flag.Bool("compat", false, "thesis wire and admission: full-snapshot transport, no overload protection")
	debugAddr   = flag.String("debug", "", "HTTP metrics endpoint address, e.g. 127.0.0.1:6060 (empty: disabled)")
	pulls       addrList
	logger      = log.New(os.Stderr, "wizardd: ", log.LstdFlags)
)

func main() {
	flag.Var(&pulls, "pull", "passive transmitter to pull from on each request (repeatable; enables distributed mode)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		logger.Fatal(err)
	}
}

// run serves until ctx ends or a component stops, then waits for all.
func run(ctx context.Context) (err error) {
	if *compat {
		// The thesis preset fixes what a thesis peer can observe and
		// nothing else: the status wire (recv.Compat below) and a
		// wizard that never sheds. How replies are computed is
		// invisible on the wire.
		*maxQueue, *rateLimit = 0, 0
	}
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
		return fmt.Errorf("receiver: %w", err)
	}
	// Run closes the receiver; in distributed mode nothing runs it.
	g.Close(recv)
	// Set before the update hook captures the receiver.
	recv.Compat = *compat
	// Transport frames carry the data the wizard answers from; they are
	// priority traffic and bypass shedding (audited via overload_bypass).
	recv.Overload = gate
	var update wizard.UpdateFunc
	if len(pulls) > 0 {
		update = func(context.Context) error { return recv.PullFrom(pulls, 2*time.Second) }
		logger.Printf("distributed mode: pulling from %v per request", pulls)
	} else {
		g.Go("receiver", recv.Run)
		logger.Printf("centralized mode: receiver on %s", recv.Addr())
	}

	groups := map[string]string{}
	if *groupsFlag != "" {
		for _, kv := range strings.Split(*groupsFlag, ",") {
			host, group, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return fmt.Errorf("bad -groups entry %q, want host=group", kv)
			}
			groups[host] = group
		}
	}
	var groupOf func(string) string
	if len(groups) > 0 {
		groupOf = func(h string) string { return groups[h] }
	}
	sel, err := core.New(db, core.Config{
		LocalMonitor: *localMon,
		GroupOf:      groupOf,
		ServicePort:  *servicePort,
		Obs:          reg,
	})
	if err != nil {
		return err
	}
	var templates map[string]string
	if *tplFile != "" {
		templates, err = wizard.LoadTemplates(*tplFile)
		if err != nil {
			return err
		}
		logger.Printf("loaded %d requirement templates from %s", len(templates), *tplFile)
	}
	wz, err := wizard.New(wizard.Config{
		Addr:      *listen,
		Selector:  sel,
		Update:    update,
		Templates: templates,
		Logger:    logger,
		Batch:     netbatch.DefaultBatch,
		Shards:    *shards,
		Overload:  gate,
		Obs:       reg,
	})
	if err != nil {
		return err
	}
	g.Go("wizard", wz.Run)
	mode := "pass-through admission"
	if gate.Enabled() {
		mode = fmt.Sprintf("max-queue %d, codel-target %v", *maxQueue, gate.Target())
		if *rateLimit > 0 {
			mode += fmt.Sprintf(", rate-limit %g/s", *rateLimit)
		}
	}
	logger.Printf("wizard on %s (%d shard(s), batch %d; %s)",
		wz.Addr(), wz.Shards(), netbatch.DefaultBatch, mode)
	<-ctx.Done()
	return nil
}
