package core

// ForceScan makes the selector serve planned selections by filtering
// the snapshot's columns by the plan's constraints, never from the
// index: the ground truth the differential suites hold the index path
// against.
func (s *Selector) ForceScan() *Selector {
	s.forceScan = true
	return s
}
