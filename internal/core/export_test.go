package core

import "smartsock/internal/reqlang"

// ForceScan makes the selector serve planned selections by filtering
// the snapshot's columns by the plan's constraints, never from the
// index: the ground truth the differential suites hold the index path
// against.
func (s *Selector) ForceScan() *Selector {
	s.forceScan = true
	return s
}

// PlanThreshold moves the live-record count at which the selector
// consults the planner; t ≤ 0 walks every record, the ground truth the
// planner ≡ walk suites hold the planned path against.
func (s *Selector) PlanThreshold(t int) *Selector {
	s.threshold = t
	return s
}

// CatchUp brings the selector's index in step for prog's plan, as a
// selection the catch-up rule lets through does: the index side of
// BenchmarkIndexCatchUp.
func (s *Selector) CatchUp(prog *reqlang.Program) {
	snap := s.db.PinSys()
	defer snap.Unpin()
	s.idx.SyncFor(snap, s.infoFor(prog).fields)
}
