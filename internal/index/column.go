package index

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Op is a comparison against a constant, the only predicate shape the
// planner extracts.
type Op uint8

const (
	LT Op = iota
	LE
	GT
	GE
	EQ
)

func (o Op) String() string {
	switch o {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Constraint is one extracted predicate: Field Op Val.
type Constraint struct {
	Field string
	Op    Op
	Val   float64
}

// Match applies the constraint's comparison to a concrete value. Any
// comparison involving NaN is false, matching the requirement
// language's float semantics.
func (c Constraint) Match(v float64) bool {
	switch c.Op {
	case LT:
		return v < c.Val
	case LE:
		return v <= c.Val
	case GT:
		return v > c.Val
	case GE:
		return v >= c.Val
	case EQ:
		return v == c.Val
	}
	return false
}

// Filter is Match over a column: it keeps the offsets in at whose
// value col[offset] passes, compacting at in place. The operator is
// decoded once, outside the loop, and an offset costs no branch: which
// way a broad constraint goes is a coin the predictor loses.
func (c Constraint) Filter(at []int, col []float64) []int {
	k, val := 0, c.Val
	switch c.Op {
	case LT:
		for _, i := range at {
			at[k] = i
			k += b2i(col[i] < val)
		}
	case LE:
		for _, i := range at {
			at[k] = i
			k += b2i(col[i] <= val)
		}
	case GT:
		for _, i := range at {
			at[k] = i
			k += b2i(col[i] > val)
		}
	case GE:
		for _, i := range at {
			at[k] = i
			k += b2i(col[i] >= val)
		}
	case EQ:
		for _, i := range at {
			at[k] = i
			k += b2i(col[i] == val)
		}
	}
	return at[:k]
}

// b2i compiles to a flag read, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

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
func (c *column) span(con Constraint) (lo, hi int) {
	switch con.Op {
	case LT:
		return 0, c.lowerBound(con.Val)
	case LE:
		return 0, c.upperBound(con.Val)
	case GT:
		return c.upperBound(con.Val), len(c.base)
	case GE:
		return c.lowerBound(con.Val), len(c.base)
	case EQ:
		return c.lowerBound(con.Val), c.upperBound(con.Val)
	}
	return 0, len(c.base)
}

// estimate bounds how many hosts can satisfy the constraint: the base
// range width plus the whole patch (every patch entry might fall in
// range). The planner drives candidate generation from the smallest
// estimate.
func (c *column) estimate(con Constraint) int {
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
func (c *column) collect(con Constraint, out, live Bits) {
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
func (c *column) test(id int, con Constraint) bool {
	return c.defined.Test(id) && con.Match(c.vals[id])
}
