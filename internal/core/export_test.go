package core

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
