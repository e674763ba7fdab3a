package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"smartsock/internal/status"
)

// The delta pipeline's core invariant: any sequence of store
// mutations — upserts, same-content refreshes, expiries — shipped to
// a mirror as wire-encoded deltas (with full snapshots exactly where
// the protocol demands them) leaves the mirror byte-equal to a full
// SnapshotAt of the source. These tests drive that invariant with
// seeded random op sequences and shrink failures to a minimal
// reproduction before reporting them.

// propOp is one generated pipeline operation.
type propOp struct {
	kind propKind
	host int // host index for puts/refreshes; unused for sync/expire
	val  int // content knob: same val+host ⇒ same record content
}

type propKind int

const (
	opPutSys propKind = iota
	opRefreshSys
	opPutNet
	opPutSec
	opExpireSys
	opExpireNet
	opExpireSec
	opSync
	propKinds // count
)

func (o propOp) String() string {
	names := [...]string{"putSys", "refreshSys", "putNet", "putSec", "expireSys", "expireNet", "expireSec", "sync"}
	if int(o.kind) >= len(names) { // a kind of the snapshot patch suite's own
		return fmt.Sprintf("kind%d(h%d,v%d)", o.kind, o.host, o.val)
	}
	return fmt.Sprintf("%s(h%d,v%d)", names[o.kind], o.host, o.val)
}

const propHosts = 12 // small pool so ops collide on hosts often

func propSys(host, val int) status.ServerStatus {
	return status.ServerStatus{
		Host:     fmt.Sprintf("prop-%02d", host),
		Load1:    float64(val),
		Bogomips: 1000 + float64(host)*10,
		MemTotal: 256 << 20,
		MemFree:  uint64(val+1) << 20,
	}
}

func propNet(host, val int) status.NetMetric {
	return status.NetMetric{
		From:      "netmon-local",
		To:        fmt.Sprintf("group-%02d", host),
		Delay:     time.Duration(val+1) * time.Millisecond,
		Bandwidth: float64(val+1) * 1e6,
	}
}

func propSec(host, val int) status.SecLevel {
	return status.SecLevel{Host: fmt.Sprintf("prop-%02d", host), Level: val % 7}
}

// genOps draws a random op sequence. Syncs are interleaved with
// mutations so deltas cover partial histories, and a trailing sync is
// always appended so the final comparison reflects everything.
func genOps(rng *rand.Rand, n int) []propOp {
	ops := make([]propOp, 0, n+1)
	for i := 0; i < n; i++ {
		ops = append(ops, propOp{
			kind: propKind(rng.Intn(int(propKinds))),
			host: rng.Intn(propHosts),
			val:  rng.Intn(5),
		})
	}
	return append(ops, propOp{kind: opSync})
}

// pipe is one source→mirror pipeline under test, with a fake clock
// that advances one second per operation so expiries are
// deterministic functions of the op sequence.
type pipe struct {
	src, mir *DB
	now      time.Time
	mirVer   uint64
	synced   bool

	sysD status.SysDelta
	netD status.NetDelta
	secD status.SecDelta
	sysV status.SysDeltaView
	netV status.NetDeltaView
	secV status.SecDeltaView
	buf  []byte
}

func newPipe() *pipe {
	p := &pipe{now: time.Unix(1_700_000_000, 0)}
	clock := func() time.Time { return p.now }
	p.src = NewWithClock(clock)
	p.mir = NewWithClock(clock)
	return p
}

// expireAge is what the op sequence's expiries use: records untouched
// for 3 "seconds" (= 3 ops) are stale.
const expireAge = 3 * time.Second

func (p *pipe) apply(op propOp) error {
	p.now = p.now.Add(time.Second)
	switch op.kind {
	case opPutSys:
		p.src.PutSys(propSys(op.host, op.val))
	case opRefreshSys:
		// Re-report whatever content the source currently holds for the
		// host, so this lands on the refresh path (RefVer only) when
		// the host exists and is a plain insert otherwise.
		if r, ok := p.src.GetSys(fmt.Sprintf("prop-%02d", op.host)); ok {
			p.src.PutSys(r.Status)
		} else {
			p.src.PutSys(propSys(op.host, op.val))
		}
	case opPutNet:
		p.src.PutNet(propNet(op.host, op.val))
	case opPutSec:
		p.src.PutSec(propSec(op.host, op.val))
	case opExpireSys:
		p.src.ExpireSys(expireAge)
	case opExpireNet:
		p.src.ExpireNet(expireAge)
	case opExpireSec:
		p.src.ExpireSec(expireAge)
	case opSync:
		return p.sync()
	}
	return nil
}

// sync ships one epoch: the delta since the mirror's version when the
// source can serve it (round-tripped through the real wire encoding),
// a full snapshot otherwise — exactly the transmitter's decision.
func (p *pipe) sync() error {
	if p.synced {
		ver, ok := p.src.ChangedSince(p.mirVer, &p.sysD, &p.netD, &p.secD)
		if ok {
			if err := p.applyDeltas(); err != nil {
				return err
			}
			p.mirVer = ver
			return nil
		}
	}
	sys, net, sec, ver := p.src.SnapshotAt()
	// Round-trip the batches through the wire codec too: the mirror
	// must be built from what a receiver would decode, not from shared
	// memory.
	sysRT, err := status.UnmarshalSystemBatch(status.AppendSystemBatch(nil, sys), nil)
	if err != nil {
		return fmt.Errorf("system batch round-trip: %w", err)
	}
	netRT, err := status.UnmarshalNetBatch(status.AppendNetBatch(nil, net))
	if err != nil {
		return fmt.Errorf("net batch round-trip: %w", err)
	}
	secRT, err := status.UnmarshalSecBatch(status.AppendSecBatch(nil, sec))
	if err != nil {
		return fmt.Errorf("sec batch round-trip: %w", err)
	}
	p.mir.Load(sysRT, netRT, secRT)
	p.mirVer = ver
	p.synced = true
	return nil
}

func (p *pipe) applyDeltas() error {
	if !p.sysD.Empty() {
		p.buf = status.AppendSysDelta(p.buf[:0], &p.sysD)
		if err := p.sysV.Parse(p.buf); err != nil {
			return fmt.Errorf("sys delta round-trip: %w", err)
		}
		p.mir.ApplySysDelta(p.sysV.Changed, p.sysV.Deleted, p.sysV.Refreshed)
	}
	if !p.netD.Empty() {
		p.buf = status.AppendNetDelta(p.buf[:0], &p.netD)
		if err := p.netV.Parse(p.buf); err != nil {
			return fmt.Errorf("net delta round-trip: %w", err)
		}
		p.mir.ApplyNetDelta(p.netV.Changed, p.netV.Deleted, p.netV.Refreshed)
	}
	if !p.secD.Empty() {
		p.buf = status.AppendSecDelta(p.buf[:0], &p.secD)
		if err := p.secV.Parse(p.buf); err != nil {
			return fmt.Errorf("sec delta round-trip: %w", err)
		}
		p.mir.ApplySecDelta(p.secV.Changed, p.secV.Deleted, p.secV.Refreshed)
	}
	return nil
}

// check compares source and mirror content byte-for-byte through the
// wire encoding of their sorted snapshots.
func (p *pipe) check() error {
	srcSys, srcNet, srcSec, _ := p.src.SnapshotAt()
	mirSys, mirNet, mirSec, _ := p.mir.SnapshotAt()
	if a, b := status.AppendSystemBatch(nil, srcSys), status.AppendSystemBatch(nil, mirSys); !bytes.Equal(a, b) {
		return fmt.Errorf("sys tables diverged: source %d hosts, mirror %d hosts", len(srcSys), len(mirSys))
	}
	if a, b := status.AppendNetBatch(nil, srcNet), status.AppendNetBatch(nil, mirNet); !bytes.Equal(a, b) {
		return fmt.Errorf("net tables diverged: source %d records, mirror %d records", len(srcNet), len(mirNet))
	}
	if a, b := status.AppendSecBatch(nil, srcSec), status.AppendSecBatch(nil, mirSec); !bytes.Equal(a, b) {
		return fmt.Errorf("sec tables diverged: source %d records, mirror %d records", len(srcSec), len(mirSec))
	}
	return nil
}

// runDeltaPipeline replays one op sequence through a fresh pipeline
// and reports the first invariant violation.
func runDeltaPipeline(ops []propOp) error {
	p := newPipe()
	for i, op := range ops {
		if err := p.apply(op); err != nil {
			return fmt.Errorf("op %d %v: %w", i, op, err)
		}
	}
	if err := p.sync(); err != nil {
		return fmt.Errorf("final sync: %w", err)
	}
	return p.check()
}

// shrink greedily removes ops while run still fails, returning a
// (locally) minimal failing sequence for the log.
func shrink(ops []propOp, run func([]propOp) error) []propOp {
	reduced := true
	for reduced {
		reduced = false
		for i := 0; i < len(ops); i++ {
			cand := append(append([]propOp(nil), ops[:i]...), ops[i+1:]...)
			if run(cand) != nil {
				ops = cand
				reduced = true
				break
			}
		}
	}
	return ops
}

func TestDeltaPipelineProperty(t *testing.T) {
	const (
		sequences = 60
		opsPerSeq = 80
	)
	for seed := int64(0); seed < sequences; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := genOps(rng, opsPerSeq)
		if err := runDeltaPipeline(ops); err != nil {
			minimal := shrink(ops, runDeltaPipeline)
			t.Logf("seed %d minimal failing sequence (%d of %d ops): %v", seed, len(minimal), len(ops), minimal)
			t.Fatalf("seed %d: %v (re-check on minimal: %v)", seed, err, runDeltaPipeline(minimal))
		}
	}
}

// TestDeltaSyncEveryOp is the densest schedule: a sync after every
// single mutation, so each delta carries exactly one change and every
// continuity edge is walked.
func TestDeltaSyncEveryOp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ops []propOp
	for i := 0; i < 120; i++ {
		ops = append(ops,
			propOp{kind: propKind(rng.Intn(int(opSync))), host: rng.Intn(propHosts), val: rng.Intn(5)},
			propOp{kind: opSync},
		)
	}
	if err := runDeltaPipeline(ops); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaPruneForcesResync drives more tombstones than the store
// retains (maxTombstones), so the deletion floor advances past the
// mirror's base: ChangedSince must refuse the delta and the pipeline
// must recover through a full snapshot, still byte-equal.
func TestDeltaPruneForcesResync(t *testing.T) {
	p := newPipe()
	const fleet = maxTombstones + 104
	for i := 0; i < fleet; i++ {
		p.src.PutSys(status.ServerStatus{Host: fmt.Sprintf("prune-%05d", i), Load1: 1})
	}
	if err := p.sync(); err != nil {
		t.Fatalf("initial sync: %v", err)
	}
	// Age every record out at once: > maxTombstones expiries prune the
	// tombstone table wholesale and advance the floor.
	p.now = p.now.Add(time.Hour)
	if gone := p.src.ExpireSys(time.Minute); len(gone) != fleet {
		t.Fatalf("expired %d of %d", len(gone), fleet)
	}
	if _, ok := p.src.ChangedSince(p.mirVer, &p.sysD, &p.netD, &p.secD); ok {
		t.Fatalf("ChangedSince served base %d across a tombstone prune", p.mirVer)
	}
	if err := p.sync(); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if err := p.check(); err != nil {
		t.Fatalf("after prune-forced resync: %v", err)
	}
	if n := p.mir.SysLen(); n != 0 {
		t.Fatalf("mirror still holds %d hosts after full-fleet expiry", n)
	}
}
