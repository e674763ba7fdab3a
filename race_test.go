//go:build race

package smartsock_test

// The race detector makes sync.Pool drop a share of its puts at random
// and moves more locals to the heap, so allocation pins skip under it.
func init() { raceEnabled = true }
