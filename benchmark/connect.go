package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"smartsock"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// lanRig is the 11-host wizard connect_lan11 and storm_lan11 share:
// Table 5.1's machines, records put straight into the wizard's database.
type lanRig struct {
	p     *procs
	rig   *wizardRig
	fleet []status.ServerStatus
	reqs  []requirement
}

// bootLAN serves the LAN's wizard on p; on error the caller stops p.
func bootLAN(p *procs, seed int64, names []string, n int) (*lanRig, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	l := &lanRig{p: p, reqs: stormMix(n)}
	l.fleet = lanFleet(rand.New(rand.NewSource(seed)), names)
	db := store.New()
	for _, s := range l.fleet {
		db.PutSys(s)
	}
	st.build = time.Since(t0)
	t0 = time.Now()
	var err error
	if l.rig, err = bootWizard(p, db, daemonMaxQueue, nil); err != nil {
		return nil, st, err
	}
	st.boot = time.Since(t0)
	return l, st, nil
}

// serveEcho is one server of the LAN: a single accept loop that echoes
// what the client sends and closes when the client does.
func serveEcho(ctx context.Context, ln net.Listener) error {
	stop := context.AfterFunc(ctx, func() { _ = ln.Close() })
	defer stop()
	buf := make([]byte, 256)
	for {
		c, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		for {
			// The client closes within microseconds; the deadline only
			// keeps a failed op from parking this loop for good.
			if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				break
			}
			n, err := c.Read(buf)
			if err != nil {
				break
			}
			if _, err := c.Write(buf[:n]); err != nil {
				break
			}
		}
		_ = c.Close()
	}
}

type connectInst struct {
	*lanRig
	client *smartsock.Client
	lookup func(string) *status.ServerStatus
	dial   []string
	next   int
}

func setupConnect(seed int64, sz sizes) (instance, setupTimes, error) {
	p := newProcs()
	names := make([]string, sz.hosts)
	for i := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, setupTimes{}, errors.Join(err, p.stop())
		}
		names[i] = ln.Addr().String()
		p.run("server "+names[i], func(ctx context.Context) error { return serveEcho(ctx, ln) })
	}
	l, st, err := bootLAN(p, seed, names, 3)
	if err != nil {
		return nil, st, errors.Join(err, p.stop())
	}
	c := &connectInst{lanRig: l, lookup: lookupIn(l.fleet), dial: names[:3]}
	if c.client, err = smartsock.NewClient(l.rig.wz.Addr(), nil); err != nil {
		return nil, st, errors.Join(err, c.close())
	}
	return c, st, nil
}

func (c *connectInst) step(rec *recorder) {
	r := &c.reqs[c.next]
	c.next = (c.next + 1) % len(c.reqs)
	root := rec.tr.begin("op")
	defer rec.tr.end(root)

	sp := rec.tr.begin("smartsock.Connect")
	t0 := time.Now()
	set, err := c.client.Connect(c.p.ctx, r.text, r.n)
	d := time.Since(t0)
	rec.tr.end(sp)
	if err != nil {
		rec.fail(err.Error())
		return
	}
	err = r.check(set.Addrs(), c.lookup)
	if err == nil && rec.tr != nil {
		sp = rec.tr.begin("harness.roundtrip")
		err = roundTrip(set.Conns())
		rec.tr.end(sp)
	}
	sp = rec.tr.begin("harness.close")
	for _, conn := range set.Conns() {
		// An orderly close would leave every socket in TIME_WAIT for a
		// minute; at thousands of ops a second that fills the port range.
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetLinger(0)
		}
	}
	if cerr := set.Close(); err == nil {
		err = cerr
	}
	rec.tr.end(sp)
	if err != nil {
		rec.fail(err.Error())
		return
	}
	rec.ok(d)
}

// roundTrip sends a line through every socket and expects it back.
func roundTrip(conns []net.Conn) error {
	for i, conn := range conns {
		line := fmt.Sprintf("hello %d\n", i)
		if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
			return err
		}
		if _, err := conn.Write([]byte(line)); err != nil {
			return err
		}
		got, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			return err
		}
		if got != line {
			return fmt.Errorf("socket %d echoed %q, sent %q", i, got, line)
		}
	}
	return nil
}

func (c *connectInst) env() probeEnv {
	return probeEnv{fleet: c.fleet, reqs: c.reqs, delta: 1, rig: c.rig, dial: c.dial, groups: probeClient}
}

func (c *connectInst) counters() map[string]float64 { return rigCounters(c.rig) }

func (c *connectInst) close() error { return c.p.stop() }
