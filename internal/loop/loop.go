// Package loop holds the two loops of every long-running component and
// the supervisor that runs them: Every repeats a round on an interval,
// Serve is the TCP accept loop, and Group starts, ends and closes a
// component's parts together.
package loop

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"smartsock/internal/retry"
)

// Every runs round at once, then again until ctx ends, when it returns
// ctx.Err(). After a round that succeeds the next starts interval after
// this one started (at once if it ran longer), and bo is reset. After a
// round that fails the next waits bo.Next() from its end, so a dead
// peer is not hammered at the full rate; a nil bo keeps the interval.
func Every(ctx context.Context, interval time.Duration, bo *retry.Backoff, round func() error) error {
	if interval <= 0 {
		return fmt.Errorf("loop: interval %v is not positive", interval)
	}
	for {
		start := time.Now()
		err := round()
		wait := interval - time.Since(start)
		switch {
		case bo == nil:
		case err != nil:
			wait = bo.Next()
		default:
			bo.Reset()
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
		case <-timer.C:
		}
		timer.Stop()
		// A select picks at random when both are ready: an ended context
		// runs no further round.
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// Serve hands every connection ln accepts to handle on its own
// goroutine until ctx ends. The end of ctx closes the listener and every
// live connection at once, so no handler rides out a read deadline.
// However the loop ends, Serve closes the listener and returns only
// once every handler and every close has.
func Serve(ctx context.Context, ln net.Listener, handle func(context.Context, net.Conn)) error {
	g, ctx := NewGroup(ctx)
	g.Close(ln) // Accept below surfaces this close as net.ErrClosed
	var handlers sync.WaitGroup
	defer handlers.Wait()
	defer g.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("loop: accept: %w", err)
		}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			c, _ := NewGroup(ctx)
			c.Close(conn)
			handle(ctx, conn)
			_ = c.Wait()
		}()
	}
}

// Group supervises a component's members, the goroutines that serve,
// and its closes, what ends them. A member that returns while the
// group's context is live, nil or not, ends the group, and Wait's error
// names it and wraps what it returned; a return after the end, a
// parent's cancel included, is no error. Wait returns once every member
// and every close has. With no members a group is a scope: Wait ends it.
type Group struct {
	ctx             context.Context
	cancel          context.CancelFunc
	members, closes sync.WaitGroup
	first           sync.Once
	err             error
}

var errNil = errors.New("ended without an error")

// NewGroup returns a group and the context its members run under, which
// ends with ctx or with the group.
func NewGroup(ctx context.Context) (*Group, context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	return &Group{ctx: ctx, cancel: cancel}, ctx
}

// Go starts run as the member name.
func (g *Group) Go(name string, run func(context.Context) error) {
	g.members.Add(1)
	go func() {
		defer g.members.Done()
		if err := run(g.ctx); g.ctx.Err() == nil {
			g.first.Do(func() { g.err = fmt.Errorf("%s stopped: %w", name, cmp.Or(err, errNil)) })
			g.cancel()
		}
	}()
}

// Close has c closed when the group ends, and Wait waits for the close:
// a second Close of a socket returns before the first has released it.
func (g *Group) Close(c io.Closer) {
	g.closes.Add(1)
	context.AfterFunc(g.ctx, func() { defer g.closes.Done(); _ = c.Close() })
}

// Wait waits for the members, ends the group, waits for the closes and
// reports the member that ended the group, if one did.
func (g *Group) Wait() error {
	g.members.Wait()
	g.cancel()
	g.closes.Wait()
	return g.err
}
