package core

import "smartsock/internal/store"

// A full walk through the snapshot's accessor: flagged.
func countAll(snap *store.SysSnapshot) int {
	n := 0
	snap.Each(func(i int, rec *store.SysRecord) { n++ })
	return n
}

// The evaluation loop's shape, positions read through Len and At: not
// a walk the analyzer knows.
func visit(snap *store.SysSnapshot, positions []int) int {
	n := 0
	for _, pos := range positions {
		if pos < snap.Len() && snap.At(pos).Status.Host != "" {
			n++
		}
	}
	return n
}

// The copying accessors still return record slices: flagged.
func fresh(db *store.DB) int {
	n := 0
	for range db.FreshSys(0) {
		n++
	}
	return n
}

// A justified walk is suppressed.
func explainAll(snap *store.SysSnapshot) int {
	n := 0
	//lint:ignore scanfree fixture: an operator-only walk
	snap.Each(func(i int, rec *store.SysRecord) { n++ })
	return n
}
