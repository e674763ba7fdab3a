package loop_test

import (
	"context"
	"errors"
	"net"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartsock/internal/loop"
	"smartsock/internal/obs"
	"smartsock/internal/retry"
)

var errRound = errors.New("round failed")

// every runs Every on its own goroutine and hands back its result.
func every(ctx context.Context, interval time.Duration, bo *retry.Backoff, round func() error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- loop.Every(ctx, interval, bo, round) }()
	return done
}

// await fails the test if ch yields nothing within a generous bound:
// a hang is a failure, not a stuck test binary.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: nothing after 10s", what)
		panic("unreachable")
	}
}

// The first round runs before any wait, and a round that succeeds is
// followed by no other for an interval: with an hour's interval, the
// one round is all there is when the context ends, and the end of the
// context is what Every returns.
func TestEveryRunsFirstRoundAtOnceThenWaitsTheInterval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rounds atomic.Int32
	ran := make(chan struct{}, 1)
	done := every(ctx, time.Hour, nil, func() error {
		rounds.Add(1)
		ran <- struct{}{}
		return nil
	})
	await(t, ran, "first round")
	cancel()
	if err := await(t, done, "Every after cancel"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Every returned %v, want context.Canceled", err)
	}
	if n := rounds.Load(); n != 1 {
		t.Fatalf("%d rounds in an hour's interval, want 1", n)
	}
}

// Failing rounds wait what the backoff hands out, not the interval: with
// an hour's interval and a microsecond's backoff, three failures and a
// success run back to back, drawing three waits. The success resets the
// schedule, so the backoff's next wait is its base again.
func TestEveryDrawsFailureWaitsFromBackoffAndResetsOnSuccess(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	draws := new(obs.Counter)
	bo := &retry.Backoff{Base: time.Microsecond, Jitter: -1, Metric: draws}
	var rounds int
	done := every(ctx, time.Hour, bo, func() error {
		rounds++
		if rounds <= 3 {
			return errRound
		}
		cancel()
		return nil
	})
	if err := await(t, done, "Every"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Every returned %v, want context.Canceled", err)
	}
	if rounds != 4 {
		t.Fatalf("%d rounds, want 3 failures and a success", rounds)
	}
	if n := draws.Value(); n != 3 {
		t.Fatalf("%d backoff draws for 3 failures", n)
	}
	if d := bo.Next(); d != bo.Base {
		t.Fatalf("after a success the backoff hands out %v, want its base %v", d, bo.Base)
	}
}

// A context that ends during a round runs no further round, however
// short the wait after it: the timer and the end of the context race
// for the select, and the end of the context has to win every time.
func TestEveryRunsNoRoundAfterTheContextEnds(t *testing.T) {
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var rounds int
		bo := &retry.Backoff{Base: time.Nanosecond, Jitter: -1}
		err := loop.Every(ctx, time.Hour, bo, func() error {
			rounds++
			cancel()
			return errRound
		})
		if !errors.Is(err, context.Canceled) || rounds != 1 {
			t.Fatalf("run %d: Every returned %v after %d rounds, want context.Canceled after 1", i, err, rounds)
		}
	}
}

func TestEveryRejectsNonPositiveInterval(t *testing.T) {
	for _, interval := range []time.Duration{0, -time.Second} {
		ran := false
		err := loop.Every(context.Background(), interval, nil, func() error { ran = true; return nil })
		if err == nil || ran {
			t.Fatalf("interval %v: Every returned %v, round ran: %v; want an error and no round", interval, err, ran)
		}
	}
}

// openFDs counts this process's descriptors, -1 where /proc has none.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// Serve's shutdown: a handler parked on a read of its connection is
// released by the end of the context, a handler that is slow to return
// holds Serve until it does, and once Serve has returned its listener,
// its connections and its goroutines are all gone.
func TestServeReturnsOnlyAfterEveryHandler(t *testing.T) {
	if openFDs() < 0 {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	// The first socket of a process also opens the poller's
	// descriptors: have that behind us before counting.
	warm, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()
	goroutines, fds := runtime.NumGoroutine(), openFDs()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	parked := make(chan struct{})
	var slowReturned atomic.Bool
	var handlers atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- loop.Serve(ctx, ln, func(ctx context.Context, c net.Conn) {
			if handlers.Add(1) == 1 {
				// Parked on its connection until the close releases it.
				started <- struct{}{}
				_, _ = c.Read(make([]byte, 1))
				close(parked)
				return
			}
			// Slow: it outlives the context by as long as the test likes.
			started <- struct{}{}
			<-ctx.Done()
			<-release
			slowReturned.Store(true)
		})
	}()
	var conns []net.Conn
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		await(t, started, "handler start")
	}

	cancel()
	await(t, parked, "the parked handler after cancel")
	select {
	case err := <-done:
		t.Fatalf("Serve returned (%v) while a handler it started was still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := await(t, done, "Serve after its handlers"); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if !slowReturned.Load() {
		t.Fatal("Serve returned before its slow handler")
	}
	for _, c := range conns {
		c.Close()
	}
	if got := openFDs(); got > fds {
		t.Errorf("Serve returned with %d descriptors open, %d before it", got, fds)
	}
	// A goroutine that has just marked itself done is a few instructions
	// from dead: give the count until the deadline to drain.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("Serve returned and left %d goroutines, %d before it", runtime.NumGoroutine(), goroutines)
		}
	}
}

// TestServeReturnsWithItsDescriptorsClosed: the end of ctx closes the
// listener and a connection whose handler is parked in Read, on another
// goroutine than the one that returns from Accept or Read. Serve has to
// wait for those closes too: a Close that finds its descriptor already
// closing returns at once, before the descriptor is released.
func TestServeReturnsWithItsDescriptorsClosed(t *testing.T) {
	if openFDs() < 0 {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	warm, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()
	for i := 0; i < 300; i++ {
		fds := openFDs()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- loop.Serve(ctx, ln, func(_ context.Context, c net.Conn) {
				close(started)
				_, _ = c.Read(make([]byte, 1))
			})
		}()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		await(t, started, "handler start")
		cancel()
		if err := await(t, done, "Serve after cancel"); err != nil {
			t.Fatal(err)
		}
		got := openFDs()
		c.Close()
		if got > fds+1 {
			t.Fatalf("round %d: Serve returned with %d descriptors open besides the client's, %d before it", i, got-1, fds)
		}
	}
}

// closerFunc is an io.Closer.
type closerFunc func() error

func (f closerFunc) Close() error { return f() }

// A member that returns under a live context ends the group, a nil
// return as much as an error: the other members see the end of the
// context, the closes run, and Wait names the member that ended it.
// What the other members return after the end is not the group's error.
func TestGroupEndsWithItsFirstMember(t *testing.T) {
	for _, ret := range []error{errRound, nil} {
		g, _ := loop.NewGroup(context.Background())
		var closed atomic.Bool
		g.Close(closerFunc(func() error { closed.Store(true); return nil }))
		g.Go("idle", func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() })
		g.Go("every", func(ctx context.Context) error {
			return loop.Every(ctx, time.Hour, nil, func() error { return nil })
		})
		g.Go("quitter", func(context.Context) error { return ret })
		done := make(chan error, 1)
		go func() { done <- g.Wait() }()
		err := await(t, done, "Wait after a member returned")
		if err == nil || !strings.HasPrefix(err.Error(), "quitter stopped") || errors.Is(err, errRound) != (ret != nil) {
			t.Fatalf("member returned %v: Wait = %v, want it named and wrapped", ret, err)
		}
		if errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v: the group's own cancel is in it", err)
		}
		if !closed.Load() {
			t.Fatal("Wait returned before the group's close ran")
		}
	}
}

// The end of the parent context ends every member and is no error,
// whatever the members return on their way out.
func TestGroupEndedByItsParentReturnsNil(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g, _ := loop.NewGroup(ctx)
	for _, name := range []string{"a", "b"} {
		g.Go(name, func(ctx context.Context) error {
			return loop.Every(ctx, time.Hour, nil, func() error { return nil })
		})
	}
	cancel()
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait after the parent's cancel = %v, want nil", err)
	}
}

// Wait returns after the closes it started, not only after the members:
// a close still running when Wait returns is a descriptor still held.
// With no members, Wait ends the group itself.
func TestGroupWaitsForItsCloses(t *testing.T) {
	g, _ := loop.NewGroup(context.Background())
	closing, release := make(chan struct{}), make(chan struct{})
	var closed atomic.Bool
	g.Close(closerFunc(func() error {
		close(closing)
		<-release
		closed.Store(true)
		return nil
	}))
	done := make(chan error, 1)
	go func() { done <- g.Wait() }()
	await(t, closing, "the close Wait started")
	select {
	case <-done:
		t.Fatal("Wait returned while a close was running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := await(t, done, "Wait after its close"); err != nil || !closed.Load() {
		t.Fatalf("Wait = %v, close done %v", err, closed.Load())
	}
}
