package status

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"time"
)

// The framing and the three thesis batch payloads are what a receiver
// parses first from a transmitter connection, before any version check
// can refuse the peer. Their bug class — a size or count taken from the
// wire and trusted — is owned by the two targets below.

// FuzzReadFrame reads an arbitrary byte stream frame by frame until the
// reader refuses it: a frame it returns is exactly the bytes consumed
// for it, and a stream it refuses never cost more than MaxFrameSize of
// payload buffer.
func FuzzReadFrame(f *testing.F) {
	var two bytes.Buffer
	for _, fr := range []Frame{
		{Type: TypeSystem, Data: MarshalSystemBatch([]ServerStatus{*sampleStatus()})},
		{Type: TypeSnapMark, Data: AppendSnapMark(nil, 7)},
	} {
		if err := WriteFrame(&two, fr); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(two.Bytes())
	f.Add([]byte{})
	f.Add([]byte{byte(TypeRequest), 0, 0, 0, 0})
	f.Add([]byte{byte(TypeSystem), 0, 0})             // cut inside the header
	f.Add([]byte{byte(TypeSystem), 0, 0, 0, 9, 'x'})  // cut inside the payload
	f.Add([]byte{byte(TypeSystem), 0x01, 0, 0, 0x01}) // MaxFrameSize + 1
	f.Add([]byte{0xEE, 0x02, 0, 0, 0, 1, 2, 3})       // twice MaxFrameSize, unknown type
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for {
			at := len(data) - r.Len()
			var fr Frame
			var err error
			fr, buf, err = ReadFrameInto(r, buf)
			if cap(buf) > MaxFrameSize {
				t.Fatalf("payload buffer grown to %d bytes, past MaxFrameSize, by a %d-byte stream", cap(buf), len(data))
			}
			if err != nil {
				if err == io.EOF && at != len(data) {
					t.Fatalf("io.EOF with %d bytes of the stream unread", len(data)-at)
				}
				return
			}
			used := data[at : len(data)-r.Len()]
			if len(fr.Data) > len(used) {
				t.Fatalf("frame of %d payload bytes out of %d consumed", len(fr.Data), len(used))
			}
			var again bytes.Buffer
			if err := WriteFrame(&again, fr); err != nil {
				t.Fatalf("re-encode of an accepted frame: %v", err)
			}
			if !bytes.Equal(again.Bytes(), used) {
				t.Fatalf("accepted frame re-encodes to % x, was read from % x", again.Bytes(), used)
			}
		}
	})
}

// batchFixedPoint is what a batch decoder owes one input. A count the
// payload has no room for is refused before anything is allocated for
// it: every record is at least a byte, so a count above the payload's
// length can only be a lie, and the allocation is measured on exactly
// those inputs. What the decoder accepts is a fixed point: the layout
// has no slack (fixed-width numbers, length-prefixed strings), so the
// records re-encode to the payload they came from and decode again.
func batchFixedPoint[V any](t *testing.T, what string, data []byte, dec func([]byte) ([]V, error), enc func([]byte, []V) []byte) {
	lying := len(data) >= 4 && uint64(binary.BigEndian.Uint32(data)) > uint64(len(data))
	var before, after runtime.MemStats
	if lying {
		runtime.ReadMemStats(&before)
	}
	recs, err := dec(data)
	if lying {
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s batch of %d bytes accepted with count %d", what, len(data), binary.BigEndian.Uint32(data))
		}
		// The refusal costs an error value, its text and the second
		// MemStats; the smallest slice a lying count of any size worth
		// refusing asks for is far past that.
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Fatalf("%s batch of %d bytes claiming %d records: %d bytes allocated before it was refused",
				what, len(data), binary.BigEndian.Uint32(data), got)
		}
	}
	if err != nil {
		return
	}
	again := enc(nil, recs)
	if !bytes.Equal(again, data) {
		t.Fatalf("%s batch re-encodes to % x, was decoded from % x", what, again, data)
	}
	if recs2, err := dec(again); err != nil || len(recs2) != len(recs) {
		t.Fatalf("%s batch: re-decode of its own re-encoding: %d records, %v; want %d", what, len(recs2), err, len(recs))
	}
}

// FuzzUnmarshalBatch drives one input through the decoders of all
// three batch payloads, as FuzzParseSysDelta does for the deltas.
func FuzzUnmarshalBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(MarshalSystemBatch(nil))
	f.Add(MarshalSystemBatch([]ServerStatus{*sampleStatus(), {Host: "b"}}))
	f.Add(MarshalNetBatch([]NetMetric{{From: "m1", To: "m2", Delay: 5 * time.Millisecond, Bandwidth: 95e6}}))
	f.Add(MarshalSecBatch([]SecLevel{{Host: "sagit", Level: 5}, {Host: "x", Level: -1}}))
	f.Add([]byte{0x00, 0x01, 0x00, 0x00})       // 65536 records in no bytes at all
	f.Add([]byte{0x00, 0x00, 0x40, 0x00, 0, 1}) // 16384 records in two
	f.Fuzz(func(t *testing.T, data []byte) {
		batchFixedPoint(t, "system", data, func(b []byte) ([]ServerStatus, error) { return UnmarshalSystemBatch(b, nil) }, AppendSystemBatch)
		batchFixedPoint(t, "net", data, UnmarshalNetBatch, AppendNetBatch)
		batchFixedPoint(t, "sec", data, UnmarshalSecBatch, AppendSecBatch)
	})
}
