// Package loop holds the two loops of every long-running component:
// Every repeats a round on an interval, Serve is the TCP accept loop.
package loop

import (
	"context"
	"errors"
	"fmt"
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
// once every handler and every close it started has (a second Close
// returns before the first has released the descriptor).
func Serve(ctx context.Context, ln net.Listener, handle func(context.Context, net.Conn)) error {
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup // the handlers and the closes
	defer wg.Wait()
	defer cancel()
	wg.Add(1) // Accept below surfaces this close as net.ErrClosed
	context.AfterFunc(ctx, func() { defer wg.Done(); _ = ln.Close() })
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("loop: accept: %w", err)
		}
		wg.Add(2) // the handler and its connection's close
		go func() {
			defer wg.Done()
			connCtx, done := context.WithCancel(ctx)
			defer done()
			context.AfterFunc(connCtx, func() { defer wg.Done(); _ = conn.Close() })
			handle(ctx, conn)
		}()
	}
}
