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
// the stream ends cleanly before a header byte arrives. The frame's
// Data is freshly allocated and owned by the caller.
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
		return Frame{}, buf, fmt.Errorf("status: read frame data: %w", err)
	}
	return Frame{Type: RecordType(hdr[0]), Data: buf}, buf, nil
}

// appendString appends a length-prefixed UTF-8 string.
func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("status: truncated string length")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("status: truncated string body (%d < %d)", len(b), n)
	}
	return string(b[:n]), b[n:], nil
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

// MarshalSystemBatch encodes a batch of server status records as a
// TypeSystem frame payload.
func MarshalSystemBatch(recs []ServerStatus) []byte {
	return AppendSystemBatch(nil, recs)
}

// AppendSystemBatch appends a TypeSystem payload to dst and returns
// the extended buffer, so per-tick encoders can reuse one buffer
// instead of allocating three fresh ones per epoch.
func AppendSystemBatch(dst []byte, recs []ServerStatus) []byte {
	b := binary.BigEndian.AppendUint32(dst, uint32(len(recs)))
	for i := range recs {
		s := &recs[i]
		b = appendString(b, s.Host)
		for _, v := range []float64{
			s.Load1, s.Load5, s.Load15,
			s.CPUUser, s.CPUNice, s.CPUSystem, s.CPUIdle, s.Bogomips,
		} {
			b = appendFloat(b, v)
		}
		b = appendUint64(b, s.MemTotal)
		b = appendUint64(b, s.MemUsed)
		b = appendUint64(b, s.MemFree)
		for _, v := range []float64{
			s.DiskAllReq, s.DiskRReq, s.DiskRBlocks, s.DiskWReq, s.DiskWBlocks,
		} {
			b = appendFloat(b, v)
		}
		b = appendString(b, s.NetIface)
		for _, v := range []float64{
			s.NetRBytesPS, s.NetRPacketsPS, s.NetTBytesPS, s.NetTPacketsPS,
		} {
			b = appendFloat(b, v)
		}
	}
	return b
}

// UnmarshalSystemBatch decodes a TypeSystem frame payload.
func UnmarshalSystemBatch(b []byte) ([]ServerStatus, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("status: truncated system batch count")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if n > MaxFrameSize/64 {
		return nil, fmt.Errorf("status: implausible system batch count %d", n)
	}
	recs := make([]ServerStatus, 0, n)
	var err error
	for i := uint32(0); i < n; i++ {
		var s ServerStatus
		if s.Host, b, err = readString(b); err != nil {
			return nil, err
		}
		for _, dst := range []*float64{
			&s.Load1, &s.Load5, &s.Load15,
			&s.CPUUser, &s.CPUNice, &s.CPUSystem, &s.CPUIdle, &s.Bogomips,
		} {
			if *dst, b, err = readFloat(b); err != nil {
				return nil, err
			}
		}
		if s.MemTotal, b, err = readUint64(b); err != nil {
			return nil, err
		}
		if s.MemUsed, b, err = readUint64(b); err != nil {
			return nil, err
		}
		if s.MemFree, b, err = readUint64(b); err != nil {
			return nil, err
		}
		for _, dst := range []*float64{
			&s.DiskAllReq, &s.DiskRReq, &s.DiskRBlocks, &s.DiskWReq, &s.DiskWBlocks,
		} {
			if *dst, b, err = readFloat(b); err != nil {
				return nil, err
			}
		}
		if s.NetIface, b, err = readString(b); err != nil {
			return nil, err
		}
		for _, dst := range []*float64{
			&s.NetRBytesPS, &s.NetRPacketsPS, &s.NetTBytesPS, &s.NetTPacketsPS,
		} {
			if *dst, b, err = readFloat(b); err != nil {
				return nil, err
			}
		}
		recs = append(recs, s)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("status: %d trailing bytes after system batch", len(b))
	}
	return recs, nil
}

// MarshalNetBatch encodes network metric records as a TypeNetwork
// frame payload. Delay is carried as nanoseconds.
func MarshalNetBatch(recs []NetMetric) []byte {
	return AppendNetBatch(nil, recs)
}

// AppendNetBatch appends a TypeNetwork payload to dst.
func AppendNetBatch(dst []byte, recs []NetMetric) []byte {
	b := binary.BigEndian.AppendUint32(dst, uint32(len(recs)))
	for i := range recs {
		m := &recs[i]
		b = appendString(b, m.From)
		b = appendString(b, m.To)
		b = appendUint64(b, uint64(m.Delay))
		b = appendFloat(b, m.Bandwidth)
	}
	return b
}

// UnmarshalNetBatch decodes a TypeNetwork frame payload.
func UnmarshalNetBatch(b []byte) ([]NetMetric, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("status: truncated net batch count")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if n > MaxFrameSize/32 {
		return nil, fmt.Errorf("status: implausible net batch count %d", n)
	}
	recs := make([]NetMetric, 0, n)
	var err error
	for i := uint32(0); i < n; i++ {
		var m NetMetric
		if m.From, b, err = readString(b); err != nil {
			return nil, err
		}
		if m.To, b, err = readString(b); err != nil {
			return nil, err
		}
		var d uint64
		if d, b, err = readUint64(b); err != nil {
			return nil, err
		}
		m.Delay = time.Duration(d)
		if m.Bandwidth, b, err = readFloat(b); err != nil {
			return nil, err
		}
		recs = append(recs, m)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("status: %d trailing bytes after net batch", len(b))
	}
	return recs, nil
}

// MarshalSecBatch encodes security level records as a TypeSecurity
// frame payload.
func MarshalSecBatch(recs []SecLevel) []byte {
	return AppendSecBatch(nil, recs)
}

// AppendSecBatch appends a TypeSecurity payload to dst.
func AppendSecBatch(dst []byte, recs []SecLevel) []byte {
	b := binary.BigEndian.AppendUint32(dst, uint32(len(recs)))
	for i := range recs {
		b = appendString(b, recs[i].Host)
		b = binary.BigEndian.AppendUint32(b, uint32(int32(recs[i].Level)))
	}
	return b
}

// UnmarshalSecBatch decodes a TypeSecurity frame payload.
func UnmarshalSecBatch(b []byte) ([]SecLevel, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("status: truncated sec batch count")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if n > MaxFrameSize/8 {
		return nil, fmt.Errorf("status: implausible sec batch count %d", n)
	}
	recs := make([]SecLevel, 0, n)
	var err error
	for i := uint32(0); i < n; i++ {
		var r SecLevel
		if r.Host, b, err = readString(b); err != nil {
			return nil, err
		}
		if len(b) < 4 {
			return nil, fmt.Errorf("status: truncated sec level")
		}
		r.Level = int(int32(binary.BigEndian.Uint32(b)))
		b = b[4:]
		recs = append(recs, r)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("status: %d trailing bytes after sec batch", len(b))
	}
	return recs, nil
}
