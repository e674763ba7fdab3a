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
// after every handler has: nothing it started still answers.
func Serve(ctx context.Context, ln net.Listener, handle func(context.Context, net.Conn)) error {
	ctx, cancel := context.WithCancel(ctx)
	var handlers sync.WaitGroup
	defer handlers.Wait()
	defer cancel()
	defer ln.Close()
	// Accept below surfaces the close as net.ErrClosed.
	stop := context.AfterFunc(ctx, func() { _ = ln.Close() })
	defer stop()
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
			defer conn.Close()
			stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
			defer stop()
			handle(ctx, conn)
		}()
	}
}
