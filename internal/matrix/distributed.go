package matrix

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"smartsock/internal/loop"
)

// The master/worker protocol of Fig C.2: for every result tile the
// master sends the matching row block of A and column block of B; the
// worker multiplies them and returns the tile. Frames are gob-encoded
// over the TCP sockets the Smart library handed back.

// task ships one tile's inputs to a worker.
type task struct {
	Block Block
	A     Matrix // (R1−R0)×N row block
	B     Matrix // N×(C1−C0) column block
}

// result returns one computed tile.
type result struct {
	Block Block
	C     Matrix
	Err   string
}

// Worker executes tiles for a master. SpeedFactor scales its compute
// speed: 1.0 is the testbed's fastest class (P4 2.4 GHz in Fig 5.2);
// 0.5 takes twice as long, emulating a slower CPU on shared hardware.
type Worker struct {
	// SpeedFactor in (0, 1]; 0 defaults to 1 (full speed).
	SpeedFactor float64
	// OpCost is the modeled compute time per million multiply-add
	// operations at SpeedFactor 1. When set, a tile costs
	// ops/1e6 × OpCost ÷ effective speed of wall time (the worker
	// sleeps out the remainder after the one real multiply), so many
	// workers sharing one physical CPU still exhibit the paper's
	// parallel timing: sleeps overlap, real compute is a small
	// correctness check. Zero falls back to stretching measured
	// compute time, which is only meaningful with dedicated cores.
	OpCost time.Duration
	// LoadFactor returns an additional slowdown in (0, 1] from
	// competing processes (SuperPI halves the CPU share a worker
	// gets). Nil means no competing load.
	LoadFactor func() float64
	// Sleep pauses the worker while it models compute time; nil means
	// time.Sleep. Injected so tests can run the timing model in
	// virtual time.
	Sleep func(time.Duration)
	// Name for diagnostics.
	Name string
}

// pause stretches wall time through the injected sleep.
func (w *Worker) pause(d time.Duration) {
	sleep := w.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	sleep(d)
}

// Serve accepts masters on ln until the context is cancelled. Each
// connection is one master session processing tasks sequentially —
// the thesis's worker loop.
func (w *Worker) Serve(ctx context.Context, ln net.Listener) error {
	return loop.Serve(ctx, ln, w.serveConn)
}

func (w *Worker) serveConn(_ context.Context, conn net.Conn) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var t task
		if err := dec.Decode(&t); err != nil {
			return // master hung up or died
		}
		res := w.compute(&t)
		if err := enc.Encode(res); err != nil {
			return
		}
	}
}

// compute multiplies one tile, stretching wall time by the inverse
// of the effective speed (hardware class × competing load).
func (w *Worker) compute(t *task) *result {
	start := time.Now()
	c, err := MultiplyLocal(&t.A, &t.B)
	if err != nil {
		return &result{Block: t.Block, Err: err.Error()}
	}
	speed := w.SpeedFactor
	if speed <= 0 || speed > 1 {
		speed = 1
	}
	if w.LoadFactor != nil {
		if lf := w.LoadFactor(); lf > 0 && lf < 1 {
			speed *= lf
		}
	}
	elapsed := time.Since(start)
	if w.OpCost > 0 {
		ops := float64(t.A.Rows) * float64(t.A.Cols) * float64(t.B.Cols)
		modeled := time.Duration(ops / 1e6 * float64(w.OpCost) / speed)
		if extra := modeled - elapsed; extra > 0 {
			w.pause(extra)
		}
	} else if speed < 1 {
		w.pause(time.Duration(float64(elapsed) * (1/speed - 1)))
	}
	return &result{Block: t.Block, C: *c}
}

// Distribute multiplies a×b across the given worker connections with
// tile size blk. One goroutine per connection pulls tiles from a
// shared queue, so fast workers naturally take more tiles — the
// self-balancing property the thesis's master relies on.
func Distribute(ctx context.Context, a, b *Matrix, blk int, conns []net.Conn) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("matrix: %dx%d × %dx%d shapes do not chain", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if a.Rows != a.Cols || b.Rows != b.Cols {
		return nil, fmt.Errorf("matrix: distributed mode multiplies square matrices, got %dx%d and %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if len(conns) == 0 {
		return nil, fmt.Errorf("matrix: no worker connections")
	}
	n := a.Rows
	blocks, err := Blocks(n, blk)
	if err != nil {
		return nil, err
	}
	c, err := NewMatrix(n, n)
	if err != nil {
		return nil, err
	}

	tasks := make(chan Block)
	results := make(chan *result, len(conns))
	errc := make(chan error, len(conns))
	var wg sync.WaitGroup

	for _, conn := range conns {
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			enc := gob.NewEncoder(conn)
			dec := gob.NewDecoder(conn)
			for blkDef := range tasks {
				arows, err := a.RowBlock(blkDef.R0, blkDef.R1)
				if err != nil {
					errc <- err
					return
				}
				bcols, err := b.ColBlock(blkDef.C0, blkDef.C1)
				if err != nil {
					errc <- err
					return
				}
				if err := enc.Encode(&task{Block: blkDef, A: *arows, B: *bcols}); err != nil {
					errc <- fmt.Errorf("matrix: send tile to worker: %w", err)
					return
				}
				var res result
				if err := dec.Decode(&res); err != nil {
					errc <- fmt.Errorf("matrix: receive tile from worker: %w", err)
					return
				}
				results <- &res
			}
		}(conn)
	}

	// Feed tasks; stop early if the context dies.
	go func() {
		defer close(tasks)
		for _, blkDef := range blocks {
			select {
			case tasks <- blkDef:
			case <-ctx.Done():
				return
			}
		}
	}()

	done := 0
	for done < len(blocks) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case err := <-errc:
			return nil, err
		case res := <-results:
			if res.Err != "" {
				return nil, fmt.Errorf("matrix: worker failed on tile %+v: %s", res.Block, res.Err)
			}
			if err := pasteBlock(c, res); err != nil {
				return nil, err
			}
			done++
		}
	}
	wg.Wait()
	return c, nil
}

// pasteBlock writes a returned tile into the result matrix.
func pasteBlock(c *Matrix, res *result) error {
	b := res.Block
	wantRows, wantCols := b.R1-b.R0, b.C1-b.C0
	if res.C.Rows != wantRows || res.C.Cols != wantCols {
		return fmt.Errorf("matrix: tile %+v came back %dx%d", b, res.C.Rows, res.C.Cols)
	}
	if b.R1 > c.Rows || b.C1 > c.Cols {
		return fmt.Errorf("matrix: tile %+v outside %dx%d result", b, c.Rows, c.Cols)
	}
	for i := 0; i < wantRows; i++ {
		copy(c.Data[(b.R0+i)*c.Cols+b.C0:(b.R0+i)*c.Cols+b.C1],
			res.C.Data[i*wantCols:(i+1)*wantCols])
	}
	return nil
}
