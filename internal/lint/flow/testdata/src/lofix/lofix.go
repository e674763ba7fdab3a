// Package lofix exercises the lockorder analyzer: lock-order
// inversions across the acquisition graph and held-lock re-acquires
// through call chains.
package lofix

import "sync"

type pair struct {
	a sync.Mutex
	b sync.Mutex
}

// abOrder takes a then b; baOrder takes b then a. Each acquisition
// that participates in the resulting cycle is reported.
func (p *pair) abOrder() {
	p.a.Lock()
	p.b.Lock() // want:lockorder
	p.b.Unlock()
	p.a.Unlock()
}

func (p *pair) baOrder() {
	p.b.Lock()
	p.a.Lock() // want:lockorder
	p.a.Unlock()
	p.b.Unlock()
}

type box struct{ mu sync.Mutex }

func (b *box) get() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return 1
}

// double calls get with mu held, and get acquires mu itself: a
// self-deadlock through the one-level call summary.
func (b *box) double() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.get() * 2 // want:lockorder
}

// relock re-acquires directly.
func (b *box) relock() {
	b.mu.Lock()
	b.mu.Lock() // want:lockorder
	b.mu.Unlock()
	b.mu.Unlock()
}

type nested struct {
	outer sync.Mutex
	inner sync.Mutex
}

// A consistent outer-then-inner order module-wide is the normal
// fine-grained-locking shape: no finding.
func (n *nested) first() {
	n.outer.Lock()
	n.inner.Lock() // nowant:lockorder
	n.inner.Unlock()
	n.outer.Unlock()
}

func (n *nested) second() {
	n.outer.Lock()
	n.inner.Lock() // nowant:lockorder
	n.inner.Unlock()
	n.outer.Unlock()
}

// The shape of the seed that keeps this analyzer (DESIGN.md "One
// oracle per bug class"): a table lock and a session lock on one
// receiver, taken in one order by close and in the other by a reply's
// apply path, which reaches the second lock through a helper. The race
// detector has nothing to report until the two interleave.
type receiver struct {
	sessMu sync.Mutex
	pullMu sync.Mutex
	closed bool
	vers   map[string]uint64
}

func (r *receiver) close() {
	r.sessMu.Lock()
	defer r.sessMu.Unlock()
	r.closed = true
	r.pullMu.Lock() // want:lockorder
	r.vers = nil
	r.pullMu.Unlock()
}

func (r *receiver) isClosed() bool {
	r.sessMu.Lock()
	defer r.sessMu.Unlock()
	return r.closed
}

func (r *receiver) applyPull(addr string, ver uint64) {
	r.pullMu.Lock()
	defer r.pullMu.Unlock()
	if r.isClosed() { // want:lockorder
		return
	}
	r.vers[addr] = ver
}
