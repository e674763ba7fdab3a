// Package shaper is the reproduction's stand-in for rshaper, the
// kernel module the thesis uses to pin a server's link bandwidth to a
// chosen value during the massive-download experiments (§5.3.2,
// Fig 5.3). It implements a token-bucket rate limiter that wraps a
// net.Conn (or any io.Writer/io.Reader), capping sustained throughput
// at a configured rate while allowing small bursts, which is exactly
// the observable behaviour the experiments rely on: "the maximum
// throughput that can be achieved by massd can be precisely
// controlled by rshaper".
package shaper

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// Bucket is a thread-safe token bucket. Tokens are bytes; the bucket
// refills continuously at its rate in bytes/second up to its burst.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64 // max accumulated bytes
	tokens float64
	last   time.Time
	clock  func() time.Time
	sleep  func(time.Duration)
}

// NewBucket creates a bucket with the given sustained rate in
// bytes/second. burst 0 picks rate/10 bounded to [4 KiB, 256 KiB].
func NewBucket(rate float64, burst float64) (*Bucket, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("shaper: rate %v must be positive", rate)
	}
	if burst <= 0 {
		burst = rate / 10
		if burst < 4096 {
			burst = 4096
		}
		if burst > 256*1024 {
			burst = 256 * 1024
		}
	}
	b := &Bucket{
		rate:  rate,
		burst: burst,
		clock: time.Now,
		sleep: time.Sleep,
	}
	b.tokens = burst
	b.last = b.clock()
	return b, nil
}

func (b *Bucket) refillLocked() {
	now := b.clock()
	dt := now.Sub(b.last).Seconds()
	if dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// Take blocks until n tokens are available and consumes them. n may
// exceed the burst size; the caller is simply paced across multiple
// refills. A nil context is allowed.
func (b *Bucket) Take(ctx context.Context, n int) error {
	remaining := float64(n)
	for remaining > 0 {
		b.mu.Lock()
		b.refillLocked()
		grant := b.tokens
		if grant > remaining {
			grant = remaining
		}
		b.tokens -= grant
		remaining -= grant
		var wait time.Duration
		if remaining > 0 {
			// Sleep until roughly a burst's worth (or what's left)
			// accumulates.
			need := remaining
			if need > b.burst {
				need = b.burst
			}
			wait = time.Duration(need / b.rate * float64(time.Second))
		}
		b.mu.Unlock()
		if wait <= 0 {
			continue
		}
		if ctx != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		} else {
			b.sleep(wait)
		}
	}
	return nil
}

// Conn wraps a net.Conn, pacing writes (and optionally reads) through
// token buckets. Shaping writes on the server side reproduces
// rshaper limiting a file server's uplink.
type Conn struct {
	net.Conn
	wb *Bucket // write bucket, may be nil
	rb *Bucket // read bucket, may be nil
}

// NewConn wraps conn. Either bucket may be nil to leave that
// direction unshaped. Sharing one bucket across several conns models
// a shared physical link.
func NewConn(conn net.Conn, write, read *Bucket) *Conn {
	return &Conn{Conn: conn, wb: write, rb: read}
}

// Write paces the payload through the write bucket in burst-sized
// chunks, so one huge write cannot blow through the limit.
func (c *Conn) Write(p []byte) (int, error) {
	if c.wb == nil {
		return c.Conn.Write(p)
	}
	written := 0
	for written < len(p) {
		chunk := len(p) - written
		if max := int(c.wb.burst); chunk > max && max > 0 {
			chunk = max
		}
		if err := c.wb.Take(nil, chunk); err != nil {
			return written, err
		}
		n, err := c.Conn.Write(p[written : written+chunk])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Read paces received bytes through the read bucket. Deadlines are
// the caller's to set; the wrapper forwards them to the embedded conn.
func (c *Conn) Read(p []byte) (int, error) {
	if c.rb == nil {
		//lint:ignore deadline transparent pacing wrapper: the caller owns deadlines
		return c.Conn.Read(p)
	}
	//lint:ignore deadline transparent pacing wrapper: the caller owns deadlines
	n, err := c.Conn.Read(p)
	if n > 0 {
		if terr := c.rb.Take(nil, n); terr != nil && err == nil {
			err = terr
		}
	}
	return n, err
}

// Listener wraps a net.Listener so every accepted connection shares
// one write-side bucket — the whole server's uplink is capped, like a
// host behind rshaper.
type Listener struct {
	net.Listener
	bucket *Bucket
}

// NewListener caps the aggregate write rate of all connections
// accepted from ln at rate bytes/second.
func NewListener(ln net.Listener, rate float64) (*Listener, error) {
	b, err := NewBucket(rate, 0)
	if err != nil {
		return nil, err
	}
	return &Listener{Listener: ln, bucket: b}, nil
}

// Accept wraps the next connection with the shared bucket.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return NewConn(conn, l.bucket, nil), nil
}
