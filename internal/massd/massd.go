// Package massd implements the thesis's second evaluation
// application (§5.3.2): a massive download program that fetches a
// large object from multiple file servers in parallel, block by
// block, over the socket set the Smart library returned. Throughput
// is the performance indicator; servers run behind a shaper (the
// rshaper stand-in) so experiments control each group's bandwidth.
//
// The wire protocol is minimal: the client sends an 8-byte big-endian
// block length; the server streams exactly that many bytes back; a
// zero length says goodbye. Content is deterministic per offset so
// integrity is checkable without storing a real file.
package massd

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"smartsock/internal/loop"
)

// MaxBlock bounds a single requested block (16 MiB).
const MaxBlock = 16 << 20

// Server answers block requests, typically behind a shaper.Listener.
type Server struct{}

// Serve accepts clients on ln until the context is cancelled.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return loop.Serve(ctx, ln, s.serveConn)
}

func (s *Server) serveConn(_ context.Context, conn net.Conn) {
	hdr := make([]byte, 8)
	buf := make([]byte, 64*1024)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		size := binary.BigEndian.Uint64(hdr)
		if size == 0 {
			return // polite goodbye
		}
		if size > MaxBlock {
			return // protocol violation
		}
		remaining := int(size)
		for remaining > 0 {
			chunk := remaining
			if chunk > len(buf) {
				chunk = len(buf)
			}
			n, err := conn.Write(buf[:chunk])
			if err != nil {
				return
			}
			remaining -= n
		}
	}
}

// Stats summarises one massive download.
type Stats struct {
	Bytes    int64
	Elapsed  time.Duration
	PerConn  []int64 // bytes fetched through each connection
	Requests int64
}

// ThroughputKBps reports the aggregate throughput in KB/s, the unit
// of Figs 5.3–5.6.
func (s Stats) ThroughputKBps() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Bytes) / 1024 / s.Elapsed.Seconds()
}

// Download fetches total bytes in blk-sized blocks across the given
// connections. Each connection runs a puller goroutine that grabs the
// next block from a shared counter — "the same algorithm as the
// matrix multiplication program": faster servers serve more blocks.
func Download(ctx context.Context, conns []net.Conn, total, blk int64) (Stats, error) {
	if len(conns) == 0 {
		return Stats{}, fmt.Errorf("massd: no server connections")
	}
	if total <= 0 || blk <= 0 {
		return Stats{}, fmt.Errorf("massd: invalid sizes total=%d blk=%d", total, blk)
	}
	if blk > MaxBlock {
		return Stats{}, fmt.Errorf("massd: block %d exceeds protocol limit %d", blk, MaxBlock)
	}
	nBlocks := (total + blk - 1) / blk
	var next atomic.Int64
	stats := Stats{PerConn: make([]int64, len(conns))}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup

	start := time.Now()
	for ci, conn := range conns {
		wg.Add(1)
		go func(ci int, conn net.Conn) {
			defer wg.Done()
			hdr := make([]byte, 8)
			buf := make([]byte, 64*1024)
			for {
				if ctx.Err() != nil {
					return
				}
				i := next.Add(1) - 1
				if i >= nBlocks {
					return
				}
				want := blk
				if rem := total - i*blk; rem < want {
					want = rem
				}
				binary.BigEndian.PutUint64(hdr, uint64(want))
				if _, err := conn.Write(hdr); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("massd: request block %d: %w", i, err)
					}
					mu.Unlock()
					return
				}
				remaining := want
				for remaining > 0 {
					chunk := remaining
					if chunk > int64(len(buf)) {
						chunk = int64(len(buf))
					}
					n, err := io.ReadFull(conn, buf[:chunk])
					stats.PerConn[ci] += int64(n)
					remaining -= int64(n)
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("massd: read block %d: %w", i, err)
						}
						mu.Unlock()
						return
					}
				}
				atomic.AddInt64(&stats.Requests, 1)
			}
		}(ci, conn)
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	for _, b := range stats.PerConn {
		stats.Bytes += b
	}
	if firstErr != nil {
		return stats, firstErr
	}
	if stats.Bytes != total {
		return stats, fmt.Errorf("massd: fetched %d of %d bytes", stats.Bytes, total)
	}
	// Politely close the sessions.
	zero := make([]byte, 8)
	for _, conn := range conns {
		conn.Write(zero)
	}
	return stats, nil
}
