package matrix

import (
	"context"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func mustRandom(t *testing.T, n int, seed int64) *Matrix {
	t.Helper()
	m, err := NewRandom(n, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(0, 5); err == nil {
		t.Error("accepted 0 rows")
	}
	if _, err := NewMatrix(5, -1); err == nil {
		t.Error("accepted negative cols")
	}
}

func TestMultiplyLocalIdentity(t *testing.T) {
	a := mustRandom(t, 8, 1)
	id, _ := NewMatrix(8, 8)
	for i := 0; i < 8; i++ {
		id.Set(i, i, 1)
	}
	c, err := MultiplyLocal(a, id)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(a, 1e-12) {
		t.Error("A×I ≠ A")
	}
	c2, err := MultiplyLocal(id, a)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Equal(a, 1e-12) {
		t.Error("I×A ≠ A")
	}
}

func TestMultiplyLocalKnownValues(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := &Matrix{Rows: 3, Cols: 2, Data: []float64{7, 8, 9, 10, 11, 12}}
	c, err := MultiplyLocal(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Errorf("C[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMultiplyLocalShapeMismatch(t *testing.T) {
	a, _ := NewMatrix(2, 3)
	b, _ := NewMatrix(2, 3)
	if _, err := MultiplyLocal(a, b); err == nil {
		t.Error("accepted non-chaining shapes")
	}
}

func TestBlocksCoverSquareExactly(t *testing.T) {
	blocks, err := Blocks(10, 4) // uneven tail: 4,4,2
	if err != nil {
		t.Fatal(err)
	}
	covered := make([][]bool, 10)
	for i := range covered {
		covered[i] = make([]bool, 10)
	}
	for _, b := range blocks {
		for i := b.R0; i < b.R1; i++ {
			for j := b.C0; j < b.C1; j++ {
				if covered[i][j] {
					t.Fatalf("cell (%d,%d) covered twice", i, j)
				}
				covered[i][j] = true
			}
		}
	}
	for i := range covered {
		for j := range covered[i] {
			if !covered[i][j] {
				t.Fatalf("cell (%d,%d) uncovered", i, j)
			}
		}
	}
	if _, err := Blocks(0, 4); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := Blocks(4, 0); err == nil {
		t.Error("accepted blk=0")
	}
}

func TestPropertyBlocksPartition(t *testing.T) {
	prop := func(nRaw, blkRaw uint8) bool {
		n := int(nRaw%50) + 1
		blk := int(blkRaw%60) + 1
		blocks, err := Blocks(n, blk)
		if err != nil {
			return false
		}
		cells := 0
		for _, b := range blocks {
			if b.R0 < 0 || b.R1 > n || b.C0 < 0 || b.C1 > n || b.R0 >= b.R1 || b.C0 >= b.C1 {
				return false
			}
			cells += (b.R1 - b.R0) * (b.C1 - b.C0)
		}
		return cells == n*n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRowColBlocks(t *testing.T) {
	m := &Matrix{Rows: 3, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}}
	r, err := m.RowBlock(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows != 2 || r.Data[0] != 4 || r.Data[5] != 9 {
		t.Errorf("RowBlock = %+v", r)
	}
	c, err := m.ColBlock(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cols != 2 || c.At(0, 0) != 1 || c.At(2, 1) != 8 {
		t.Errorf("ColBlock = %+v", c)
	}
	if _, err := m.RowBlock(2, 2); err == nil {
		t.Error("accepted empty row block")
	}
	if _, err := m.ColBlock(-1, 2); err == nil {
		t.Error("accepted negative col block")
	}
}

// startWorkers launches n in-process workers and dials one connection
// to each.
func startWorkers(t *testing.T, speeds []float64) []net.Conn {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	conns := make([]net.Conn, len(speeds))
	for i, speed := range speeds {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := &Worker{SpeedFactor: speed, Name: "w"}
		go w.Serve(ctx, ln)
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conns[i] = conn
	}
	return conns
}

func TestDistributedMatchesLocal(t *testing.T) {
	a := mustRandom(t, 30, 1)
	b := mustRandom(t, 30, 2)
	want, err := MultiplyLocal(a, b)
	if err != nil {
		t.Fatal(err)
	}
	conns := startWorkers(t, []float64{1, 1, 1})
	got, err := Distribute(context.Background(), a, b, 8, conns)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-9) {
		t.Error("distributed result differs from local")
	}
}

func TestDistributedUnevenBlocks(t *testing.T) {
	a := mustRandom(t, 25, 3)
	b := mustRandom(t, 25, 4)
	want, _ := MultiplyLocal(a, b)
	conns := startWorkers(t, []float64{1, 0.5})
	got, err := Distribute(context.Background(), a, b, 10, conns)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-9) {
		t.Error("uneven-tail distributed result differs from local")
	}
}

func TestDistributedSingleWorker(t *testing.T) {
	a := mustRandom(t, 12, 5)
	b := mustRandom(t, 12, 6)
	want, _ := MultiplyLocal(a, b)
	conns := startWorkers(t, []float64{1})
	got, err := Distribute(context.Background(), a, b, 5, conns)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-9) {
		t.Error("single-worker result differs")
	}
}

func TestDistributedValidation(t *testing.T) {
	a := mustRandom(t, 4, 1)
	b := mustRandom(t, 4, 2)
	if _, err := Distribute(context.Background(), a, b, 2, nil); err == nil {
		t.Error("accepted empty connection list")
	}
	rect := &Matrix{Rows: 2, Cols: 4, Data: make([]float64, 8)}
	conns := startWorkers(t, []float64{1})
	if _, err := Distribute(context.Background(), rect, b, 2, conns); err == nil {
		t.Error("accepted non-square input")
	}
}

func TestDistributedWorkerDeathReportsError(t *testing.T) {
	a := mustRandom(t, 20, 7)
	b := mustRandom(t, 20, 8)
	// A connection to a server that immediately closes.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			conn.Close()
		}
		ln.Close()
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := Distribute(ctx, a, b, 10, []net.Conn{conn}); err == nil {
		t.Error("dead worker went unnoticed")
	}
}

func TestSlowWorkerStretchesTime(t *testing.T) {
	// The speed-factor substitution: the same tile takes visibly
	// longer on a "slow CPU". Modeled op-cost timing makes the ratio
	// deterministic regardless of host speed and protocol overhead.
	a := mustRandom(t, 100, 9)
	b := mustRandom(t, 100, 10)
	run := func(speed float64) time.Duration {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// OpCost is large enough that the modeled time dominates the
		// real multiply and protocol overhead even under -race.
		w := &Worker{SpeedFactor: speed, OpCost: 100 * time.Millisecond}
		go w.Serve(ctx, ln)
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		if _, err := Distribute(ctx, a, b, 100, conn2slice(conn)); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	fast := run(1.0) // modeled: 1e6 ops → ≈100 ms
	slow := run(0.2) // modeled: ≈500 ms
	if slow < fast*2 {
		t.Errorf("speed 0.2 took %v, speed 1.0 took %v; want ≥2× stretch", slow, fast)
	}
}

func conn2slice(c net.Conn) []net.Conn { return []net.Conn{c} }

func TestFasterWorkersTakeMoreTiles(t *testing.T) {
	// Self-balancing task queue: with one fast and one slow worker,
	// throughput comes mostly from the fast one but both contribute —
	// the property behind the 6v6 "communication overhead" discussion.
	a := mustRandom(t, 40, 11)
	b := mustRandom(t, 40, 12)
	want, _ := MultiplyLocal(a, b)
	conns := startWorkers(t, []float64{1, 0.1})
	got, err := Distribute(context.Background(), a, b, 5, conns)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-9) {
		t.Error("heterogeneous result differs")
	}
}

func TestEqual(t *testing.T) {
	a := mustRandom(t, 4, 1)
	if a.Equal(nil, 0) {
		t.Error("Equal(nil) = true")
	}
	b := mustRandom(t, 4, 1)
	if !a.Equal(b, 0) {
		t.Error("identical seeds differ")
	}
	b.Data[3] += 1e-3
	if a.Equal(b, 1e-6) {
		t.Error("perturbation unnoticed")
	}
	if !a.Equal(b, 1e-2) {
		t.Error("eps not honoured")
	}
}

func TestNewRandomDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	_ = r
	a := mustRandom(t, 6, 99)
	b := mustRandom(t, 6, 99)
	if !a.Equal(b, 0) {
		t.Error("NewRandom not deterministic per seed")
	}
}

// A worker caught in the middle of a tile's modelled compute when its
// context ends holds Serve until the compute is done: once Serve has
// returned, nothing it started still runs. The tile sleeps until the
// test wakes it, which it does only after giving Serve time to return
// early.
func TestServeWaitsForTheTileInProgress(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sleeping, wake := make(chan struct{}), make(chan struct{})
	var woke atomic.Bool
	w := &Worker{OpCost: time.Hour, Sleep: func(time.Duration) {
		close(sleeping)
		<-wake
		woke.Store(true)
	}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- w.Serve(ctx, ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	a, b := mustRandom(t, 4, 1), mustRandom(t, 4, 2)
	distributed := make(chan error, 1)
	go func() {
		_, err := Distribute(context.Background(), a, b, 4, conn2slice(conn))
		distributed <- err
	}()
	select {
	case <-sleeping:
	case <-time.After(10 * time.Second):
		t.Fatal("the tile never reached its modelled compute")
	}

	cancel()
	select {
	case <-served:
		close(wake)
		t.Fatal("Serve returned while a handler it started was still computing")
	case <-time.After(100 * time.Millisecond):
	}
	close(wake)
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after its handler did")
	}
	if !woke.Load() {
		t.Fatal("Serve returned before the tile's compute did")
	}
	// The worker's end of the connection closed under the tile: the
	// master sees an error, not a hang.
	select {
	case <-distributed:
	case <-time.After(10 * time.Second):
		t.Fatal("Distribute hung on a worker that was shut down")
	}
}
