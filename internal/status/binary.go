// Binary codec for transmitter→receiver transfer (§3.5.1).
//
// The thesis ships raw C structs and therefore requires both ends to
// share endianness and word size. This implementation keeps the
// [type, size, data] framing but defines the data layout explicitly in
// network byte order with fixed-width fields and length-prefixed
// strings, so the restriction disappears while the wire behaviour —
// receiver learns type and size first, then allocates and copies — is
// preserved.

package status

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"
)

// MaxFrameSize bounds a single transmitter frame. A receiver refuses
// larger frames instead of allocating unbounded memory from a
// malformed or hostile size field.
const MaxFrameSize = 16 << 20

// Frame is one transmitter message: a typed batch of records.
type Frame struct {
	Type RecordType
	Data []byte
}

// WriteFrame writes a [type, size, data] frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Data) > MaxFrameSize {
		return fmt.Errorf("status: frame of %d bytes exceeds limit %d", len(f.Data), MaxFrameSize)
	}
	hdr := make([]byte, 5)
	hdr[0] = byte(f.Type)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(f.Data)))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("status: write frame header: %w", err)
	}
	if _, err := w.Write(f.Data); err != nil {
		return fmt.Errorf("status: write frame data: %w", err)
	}
	return nil
}

// AppendFrame appends the frame [t, size, payload] to dst, the payload
// being what enc appends for v. The size is written into the header
// once the payload is in place, so a sender can line up several frames
// in one buffer and put them on the wire with a single write.
func AppendFrame[T any](dst []byte, t RecordType, enc func([]byte, T) []byte, v T) ([]byte, error) {
	at := len(dst)
	dst = enc(append(dst, byte(t), 0, 0, 0, 0), v)
	size := len(dst) - at - 5
	if size > MaxFrameSize {
		return dst[:at], fmt.Errorf("status: frame of %d bytes exceeds limit %d", size, MaxFrameSize)
	}
	binary.BigEndian.PutUint32(dst[at+1:], uint32(size))
	return dst, nil
}

// ReadFrame reads one frame from r. It returns io.EOF unchanged when
// the stream ends cleanly before a header byte arrives, and only then:
// a stream that ends anywhere inside a frame, the boundary between
// header and payload included, is an error that is not io.EOF. The
// frame's Data is freshly allocated and owned by the caller.
func ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := ReadFrameInto(r, nil)
	return f, err
}

// ReadFrameInto reads one frame like ReadFrame but reuses buf for the
// payload, returning the possibly-grown buffer for the next call. The
// frame's Data aliases buf and is valid only until then, which lets a
// long-lived receiver connection apply a steady stream of frames
// without a per-frame payload allocation.
func ReadFrameInto(r io.Reader, buf []byte) (Frame, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, buf, io.EOF
		}
		return Frame{}, buf, fmt.Errorf("status: read frame header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr[1:])
	if size > MaxFrameSize {
		return Frame{}, buf, fmt.Errorf("status: frame size %d exceeds limit %d", size, MaxFrameSize)
	}
	if uint32(cap(buf)) < size {
		buf = make([]byte, size)
	} else {
		buf = buf[:size]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			// The header promised size bytes: a stream that ends right
			// after it was cut, not closed.
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, fmt.Errorf("status: read frame data: %w", err)
	}
	return Frame{Type: RecordType(hdr[0]), Data: buf}, buf, nil
}

// appendString appends a length-prefixed UTF-8 string.
func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// readBytes reads a length-prefixed string where it lies in b.
func readBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("status: truncated string length")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return nil, nil, fmt.Errorf("status: truncated string body (%d < %d)", len(b), n)
	}
	return b[:n], b[n:], nil
}

func readString(b []byte) (string, []byte, error) {
	raw, rest, err := readBytes(b)
	return string(raw), rest, err
}

func appendFloat(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

func readFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("status: truncated float64")
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:], nil
}

func appendUint64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

func readUint64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("status: truncated uint64")
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

// appendBatch is the encoder of the three thesis batch payloads: a
// 32-bit record count, then each record as rec appends it.
func appendBatch[V any](dst []byte, recs []V, rec func([]byte, *V) []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(recs)))
	for i := range recs {
		dst = rec(dst, &recs[i])
	}
	return dst
}

// unmarshalBatch is their decoder. Every record costs at least minRec
// bytes (empty strings, fixed-width numbers), which bounds the count a
// payload may claim — by what a frame can carry, and by what this
// payload does carry — before the slice for it is allocated; rec
// decodes one record in place.
func unmarshalBatch[V any](b []byte, what string, minRec uint32, rec func([]byte, *V) ([]byte, error)) ([]V, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("status: truncated %s batch count", what)
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if n > MaxFrameSize/minRec || uint64(n)*uint64(minRec) > uint64(len(b)) {
		return nil, fmt.Errorf("status: implausible %s batch count %d", what, n)
	}
	recs := make([]V, 0, n)
	var err error
	for i := uint32(0); i < n; i++ {
		var zero V
		recs = append(recs, zero)
		if b, err = rec(b, &recs[i]); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("status: %d trailing bytes after %s batch", len(b), what)
	}
	return recs, nil
}

// appendStatus appends one server status record: its fields in wire
// order, floats fixed-width, strings and integers as str and u64 write
// them — length-prefixed and fixed-width in a batch, varint-based in a
// delta.
func appendStatus(b []byte, s *ServerStatus, str func([]byte, string) []byte, u64 func([]byte, uint64) []byte) []byte {
	b = str(b, s.Host)
	for _, v := range []float64{
		s.Load1, s.Load5, s.Load15,
		s.CPUUser, s.CPUNice, s.CPUSystem, s.CPUIdle, s.Bogomips,
	} {
		b = appendFloat(b, v)
	}
	for _, v := range []uint64{s.MemTotal, s.MemUsed, s.MemFree} {
		b = u64(b, v)
	}
	for _, v := range []float64{
		s.DiskAllReq, s.DiskRReq, s.DiskRBlocks, s.DiskWReq, s.DiskWBlocks,
	} {
		b = appendFloat(b, v)
	}
	b = str(b, s.NetIface)
	for _, v := range []float64{
		s.NetRBytesPS, s.NetRPacketsPS, s.NetTBytesPS, s.NetTPacketsPS,
	} {
		b = appendFloat(b, v)
	}
	return b
}

// readStatus decodes what appendStatus wrote with the matching readers,
// writing every field of s but keeping a name s holds or names knows.
func readStatus(b []byte, s *ServerStatus, names Names, str func([]byte) ([]byte, []byte, error), u64 func([]byte) (uint64, []byte, error)) ([]byte, error) {
	raw, b, err := str(b)
	if err != nil {
		return nil, err
	}
	s.Host = internName(s.Host, raw, names)
	for _, dst := range []*float64{
		&s.Load1, &s.Load5, &s.Load15,
		&s.CPUUser, &s.CPUNice, &s.CPUSystem, &s.CPUIdle, &s.Bogomips,
	} {
		if *dst, b, err = readFloat(b); err != nil {
			return nil, err
		}
	}
	for _, dst := range []*uint64{&s.MemTotal, &s.MemUsed, &s.MemFree} {
		if *dst, b, err = u64(b); err != nil {
			return nil, err
		}
	}
	for _, dst := range []*float64{
		&s.DiskAllReq, &s.DiskRReq, &s.DiskRBlocks, &s.DiskWReq, &s.DiskWBlocks,
	} {
		if *dst, b, err = readFloat(b); err != nil {
			return nil, err
		}
	}
	if raw, b, err = str(b); err != nil {
		return nil, err
	}
	s.NetIface = internName(s.NetIface, raw, nil)
	for _, dst := range []*float64{
		&s.NetRBytesPS, &s.NetRPacketsPS, &s.NetTBytesPS, &s.NetTPacketsPS,
	} {
		if *dst, b, err = readFloat(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendStatusBatch(b []byte, s *ServerStatus) []byte {
	return appendStatus(b, s, appendString, appendUint64)
}

// appendNet appends one network metric record the same way; Delay is
// carried as nanoseconds.
func appendNet(b []byte, m *NetMetric, str func([]byte, string) []byte, u64 func([]byte, uint64) []byte) []byte {
	b = str(str(b, m.From), m.To)
	b = u64(b, uint64(m.Delay))
	return appendFloat(b, m.Bandwidth)
}

func readNet(b []byte, m *NetMetric, str func([]byte) (string, []byte, error), u64 func([]byte) (uint64, []byte, error)) ([]byte, error) {
	var err error
	if m.From, b, err = str(b); err != nil {
		return nil, err
	}
	if m.To, b, err = str(b); err != nil {
		return nil, err
	}
	var d uint64
	if d, b, err = u64(b); err != nil {
		return nil, err
	}
	m.Delay = time.Duration(d)
	m.Bandwidth, b, err = readFloat(b)
	return b, err
}

func appendNetBatch(b []byte, m *NetMetric) []byte {
	return appendNet(b, m, appendString, appendUint64)
}

func readNetBatch(b []byte, m *NetMetric) ([]byte, error) {
	return readNet(b, m, readString, readUint64)
}

func appendSecBatch(b []byte, l *SecLevel) []byte {
	return binary.BigEndian.AppendUint32(appendString(b, l.Host), uint32(int32(l.Level)))
}

func readSecBatch(b []byte, l *SecLevel) ([]byte, error) {
	var err error
	if l.Host, b, err = readString(b); err != nil {
		return nil, err
	}
	if len(b) < 4 {
		return nil, fmt.Errorf("status: truncated sec level")
	}
	l.Level = int(int32(binary.BigEndian.Uint32(b)))
	return b[4:], nil
}

// MarshalSystemBatch encodes a batch of server status records as a
// TypeSystem frame payload.
func MarshalSystemBatch(recs []ServerStatus) []byte {
	return AppendSystemBatch(nil, recs)
}

// AppendSystemBatch appends a TypeSystem payload to dst and returns
// the extended buffer, so per-tick encoders can reuse one buffer
// instead of allocating three fresh ones per epoch.
func AppendSystemBatch(dst []byte, recs []ServerStatus) []byte {
	return appendBatch(dst, recs, appendStatusBatch)
}

// UnmarshalSystemBatch decodes a TypeSystem frame payload, interning
// hosts in names (which may be nil).
func UnmarshalSystemBatch(b []byte, names Names) ([]ServerStatus, error) {
	return unmarshalBatch(b, "system", 64, func(b []byte, s *ServerStatus) ([]byte, error) {
		return readStatus(b, s, names, readBytes, readUint64)
	})
}

// MarshalNetBatch encodes network metric records as a TypeNetwork
// frame payload.
func MarshalNetBatch(recs []NetMetric) []byte {
	return AppendNetBatch(nil, recs)
}

// AppendNetBatch appends a TypeNetwork payload to dst.
func AppendNetBatch(dst []byte, recs []NetMetric) []byte {
	return appendBatch(dst, recs, appendNetBatch)
}

// UnmarshalNetBatch decodes a TypeNetwork frame payload.
func UnmarshalNetBatch(b []byte) ([]NetMetric, error) {
	return unmarshalBatch(b, "net", 20, readNetBatch)
}

// MarshalSecBatch encodes security level records as a TypeSecurity
// frame payload.
func MarshalSecBatch(recs []SecLevel) []byte {
	return AppendSecBatch(nil, recs)
}

// AppendSecBatch appends a TypeSecurity payload to dst.
func AppendSecBatch(dst []byte, recs []SecLevel) []byte {
	return appendBatch(dst, recs, appendSecBatch)
}

// UnmarshalSecBatch decodes a TypeSecurity frame payload.
func UnmarshalSecBatch(b []byte) ([]SecLevel, error) {
	return unmarshalBatch(b, "sec", 6, readSecBatch)
}
