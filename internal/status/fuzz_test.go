package status

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// The decoders face datagrams from the open network; arbitrary bytes
// must produce errors, never panics or runaway allocation.

func neverPanics(t *testing.T, name string, fn func(data []byte)) {
	t.Helper()
	prop := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		fn(data)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("%s panicked: %v", name, err)
	}
}

func TestDecodeReportNeverPanics(t *testing.T) {
	neverPanics(t, "DecodeReport", func(data []byte) { DecodeReport(data) })
}

func TestUnmarshalBatchesNeverPanic(t *testing.T) {
	neverPanics(t, "UnmarshalSystemBatch", func(data []byte) { UnmarshalSystemBatch(data, nil) })
	neverPanics(t, "UnmarshalNetBatch", func(data []byte) { UnmarshalNetBatch(data) })
	neverPanics(t, "UnmarshalSecBatch", func(data []byte) { UnmarshalSecBatch(data) })
}

// Mutation property: flipping bytes of a valid encoding must never
// produce a record that silently decodes to different *lengths* of
// data (truncation and trailing bytes are detected).
func TestSystemBatchMutationDetection(t *testing.T) {
	recs := []ServerStatus{
		{Host: "alpha", Load1: 1, MemTotal: 42},
		{Host: "beta", NetIface: "eth1", NetTBytesPS: 7},
	}
	enc := MarshalSystemBatch(recs)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		mut := append([]byte(nil), enc...)
		// Truncate or extend randomly.
		switch r.Intn(3) {
		case 0:
			mut = mut[:r.Intn(len(mut))]
		case 1:
			mut = append(mut, byte(r.Intn(256)))
		case 2:
			mut[r.Intn(len(mut))] ^= byte(1 + r.Intn(255))
		}
		if bytes.Equal(mut, enc) {
			continue
		}
		out, err := UnmarshalSystemBatch(mut, nil)
		if err != nil {
			continue // detected: fine
		}
		// A surviving mutation must still be structurally sane.
		for _, s := range out {
			if len(s.Host) > len(mut) {
				t.Fatalf("mutation produced host longer than input")
			}
		}
	}
}
