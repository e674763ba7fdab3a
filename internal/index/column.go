package index

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"smartsock/internal/reqlang"
)

// entry is one (value, host id) pair in a column's sorted view.
type entry struct {
	val float64
	id  int32
}

// sortKey orders entries. NaN sorts as +Inf so the base array stays
// totally ordered and binary search stays sound; NaN entries can land
// inside a range's positions but are never *valid* (NaN != NaN fails
// the currency check below), matching evaluation where every NaN
// comparison is false.
func sortKey(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

// column is one per-field ordered index. The dense vals array (keyed
// by host id, guarded by the defined bitset) holds the authoritative
// current values; base is a sorted view and patch an unsorted overlay
// of recent updates. Sorted entries are ghost-tolerant: an entry
// counts only while vals still holds exactly its value, so an update
// appends one patch entry and a delete needs no index work at all —
// the stale entry invalidates itself. Compaction re-sorts base from
// vals once the patch grows past a fraction of it, keeping range
// lookups O(log n + answer) amortized without ever rebuilding on a
// per-request basis.
type column struct {
	vi      int // the field's status.VarIndex; -1: no status variable
	vals    []float64
	defined Bits
	base    []entry
	patch   []entry
}

// ensure grows the dense array to cover ids below n.
func (c *column) ensure(n int) {
	for len(c.vals) < n {
		c.vals = append(c.vals, 0)
	}
	c.defined = c.defined.grow(n)
}

// set records the field's current value for one host.
func (c *column) set(id int, v float64) {
	c.define(id, v)
	c.patch = append(c.patch, entry{val: v, id: int32(id)})
	if len(c.patch) > 255+len(c.base)/8 {
		c.compact()
	}
}

// define records a value with no sorted entry: a fill defines every
// host's, then compacts once (set would re-sort every few hundred).
func (c *column) define(id int, v float64) {
	c.vals[id] = v
	c.defined.Set(id)
}

// unset marks the field undefined for one host (the record no longer
// reports it). Ghost entries in base/patch self-invalidate via the
// defined bit.
func (c *column) unset(id int) {
	c.defined.Clear(id)
}

// compact rebuilds the sorted base from the dense array and drops the
// patch.
func (c *column) compact() {
	c.base = c.base[:0]
	c.defined.ForEach(func(id int) {
		c.base = append(c.base, entry{val: c.vals[id], id: int32(id)})
	})
	slices.SortFunc(c.base, func(a, b entry) int { return cmp.Compare(sortKey(a.val), sortKey(b.val)) })
	c.patch = c.patch[:0]
}

// lowerBound returns the first base position whose key is >= x;
// upperBound the first > x.
func (c *column) lowerBound(x float64) int {
	return sort.Search(len(c.base), func(i int) bool { return sortKey(c.base[i].val) >= x })
}

func (c *column) upperBound(x float64) int {
	return sort.Search(len(c.base), func(i int) bool { return sortKey(c.base[i].val) > x })
}

// span returns the base range [lo, hi) that can satisfy the
// constraint. NaN-keyed ghosts inside the range are filtered at
// collection time.
func (c *column) span(con reqlang.Constraint) (lo, hi int) {
	switch con.Op {
	case reqlang.CmpLT:
		return 0, c.lowerBound(con.Val)
	case reqlang.CmpLE:
		return 0, c.upperBound(con.Val)
	case reqlang.CmpGT:
		return c.upperBound(con.Val), len(c.base)
	case reqlang.CmpGE:
		return c.lowerBound(con.Val), len(c.base)
	case reqlang.CmpEQ:
		return c.lowerBound(con.Val), c.upperBound(con.Val)
	}
	return 0, len(c.base)
}

// estimate bounds how many hosts can satisfy the constraint: the base
// range width plus the whole patch (every patch entry might fall in
// range). The planner drives candidate generation from the smallest
// estimate.
func (c *column) estimate(con reqlang.Constraint) int {
	lo, hi := c.span(con)
	return hi - lo + len(c.patch)
}

// valid reports whether a sorted entry still reflects the host's
// current value.
func (c *column) valid(e entry) bool {
	return c.defined.Test(int(e.id)) && c.vals[e.id] == e.val
}

// collect sets the bit of every live host satisfying the constraint:
// a binary-searched walk of the base range plus a linear sweep of the
// (small) patch. Duplicate entries for one host dedupe through the
// bitset.
func (c *column) collect(con reqlang.Constraint, out, live Bits) {
	lo, hi := c.span(con)
	for _, e := range c.base[lo:hi] {
		if c.valid(e) && live.Test(int(e.id)) && con.Match(e.val) {
			out.Set(int(e.id))
		}
	}
	for _, e := range c.patch {
		if c.valid(e) && live.Test(int(e.id)) && con.Match(e.val) {
			out.Set(int(e.id))
		}
	}
}

// test applies the constraint to one host through the dense array.
func (c *column) test(id int, con reqlang.Constraint) bool {
	return c.defined.Test(id) && con.Match(c.vals[id])
}
