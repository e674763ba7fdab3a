// Delta codec for incremental transmitter→receiver transfer.
//
// The thesis pushes the full status database as three [type,size,data]
// frames every epoch (§4.4) — fine for 11 machines, a scaling wall for
// thousands. A delta frame instead carries only what moved since a
// base version the receiver already holds:
//
//	uvarint baseVer   version the receiver must be at
//	uvarint newVer    version this delta brings it to
//	uvarint nChanged  records whose content changed, compact-encoded
//	uvarint nDeleted  keys expired at the source (tombstones)
//	uvarint nRefresh  keys re-reported with identical content; the
//	                  receiver re-stamps their UpdatedAt only
//
// Encoding is varint-based with length-prefixed strings and
// fixed-width float64 bits. Encoders append into caller-owned buffers
// (Append*Delta) and decoders parse into reusable views whose byte
// fields alias the frame buffer, so a steady delta stream costs the
// receiver almost no allocation.
package status

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
)

// NetKey names one directed network-metric record, the (From, To)
// monitor pair.
type NetKey struct {
	From, To string
}

// Compare orders keys by From, then To.
func (k NetKey) Compare(o NetKey) int {
	if c := strings.Compare(k.From, o.From); c != 0 {
		return c
	}
	return strings.Compare(k.To, o.To)
}

// NetKeyView is the zero-copy decode form of a NetKey; the byte
// slices alias the frame buffer they were parsed from.
type NetKeyView struct {
	From, To []byte
}

// Delta is the one shape every delta payload has: the [BaseVer, NewVer]
// pair, the records of type V whose content changed, and the keys of
// type K that were deleted or re-reported unchanged. The three tables
// differ only in V and K; the encode side names keys by value (string,
// NetKey) and the decode side by views that alias the parsed buffer
// ([]byte, NetKeyView) and are valid only while it lives. Changed
// records own their strings either way (they outlive the frame inside
// the store).
type Delta[V, K any] struct {
	BaseVer, NewVer uint64
	Changed         []V
	Deleted         []K
	Refreshed       []K
}

// Empty reports whether the delta carries nothing.
func (d *Delta[V, K]) Empty() bool {
	return len(d.Changed) == 0 && len(d.Deleted) == 0 && len(d.Refreshed) == 0
}

// Reset empties the delta for reuse, keeping slice capacity.
func (d *Delta[V, K]) Reset(base, newVer uint64) {
	d.BaseVer, d.NewVer = base, newVer
	d.Changed, d.Deleted, d.Refreshed = d.Changed[:0], d.Deleted[:0], d.Refreshed[:0]
}

// The encode-side forms of the TypeSysDelta, TypeNetDelta and
// TypeSecDelta payloads.
type (
	SysDelta = Delta[ServerStatus, string]
	NetDelta = Delta[NetMetric, NetKey]
	SecDelta = Delta[SecLevel, string]
)

// The decode-side forms of the same payloads. They are types of their
// own, not aliases, because each carries its Parse method.
type (
	SysDeltaView Delta[ServerStatus, []byte]
	NetDeltaView Delta[NetMetric, NetKeyView]
	SecDeltaView Delta[SecLevel, []byte]
)

// --- varint primitives ------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("status: truncated or overlong uvarint")
	}
	return v, b[n:], nil
}

// appendVString appends a uvarint-length-prefixed string.
func appendVString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// readVBytes reads a uvarint-length-prefixed byte field without
// copying; the result aliases b.
func readVBytes(b []byte) ([]byte, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("status: truncated delta string (%d < %d)", len(b), n)
	}
	return b[:n], b[n:], nil
}

func readVString(b []byte) (string, []byte, error) {
	raw, rest, err := readVBytes(b)
	if err != nil {
		return "", nil, err
	}
	return string(raw), rest, nil
}

// countCap rejects implausible element counts before any allocation,
// like the batch decoders do: every element costs at least min bytes.
func countCap(n uint64, remaining, min int) error {
	if n > uint64(remaining)/uint64(min)+1 {
		return fmt.Errorf("status: implausible delta count %d for %d bytes", n, remaining)
	}
	return nil
}

// --- compact record codecs --------------------------------------------

func appendStatusDelta(b []byte, s *ServerStatus) []byte {
	return appendStatus(b, s, appendVString, appendUvarint)
}

func appendNetDelta(b []byte, m *NetMetric) []byte {
	return appendNet(b, m, appendVString, appendUvarint)
}

func readNetDelta(b []byte, m *NetMetric) ([]byte, error) {
	return readNet(b, m, readVString, readUvarint)
}

func appendSecDelta(b []byte, l *SecLevel) []byte {
	return binary.AppendVarint(appendVString(b, l.Host), int64(l.Level))
}

func readSecDelta(b []byte, l *SecLevel) ([]byte, error) {
	var err error
	if l.Host, b, err = readVString(b); err != nil {
		return nil, err
	}
	lv, n := binary.Varint(b)
	if n <= 0 {
		return nil, fmt.Errorf("status: truncated sec delta level")
	}
	l.Level = int(lv)
	return b[n:], nil
}

func appendNetKey(b []byte, k NetKey) []byte {
	return appendVString(appendVString(b, k.From), k.To)
}

func readNetKeyView(b []byte) (k NetKeyView, rest []byte, err error) {
	if k.From, b, err = readVBytes(b); err != nil {
		return k, nil, err
	}
	k.To, b, err = readVBytes(b)
	return k, b, err
}

// --- the one delta codec ----------------------------------------------

// appendDelta is the delta encoder: the header and the three counted
// lists, with rec and key appending one changed record and one key.
func appendDelta[V, K any](dst []byte, d *Delta[V, K], rec func([]byte, *V) []byte, key func([]byte, K) []byte) []byte {
	dst = appendUvarint(dst, d.BaseVer)
	dst = appendUvarint(dst, d.NewVer)
	dst = appendUvarint(dst, uint64(len(d.Changed)))
	for i := range d.Changed {
		dst = rec(dst, &d.Changed[i])
	}
	for _, keys := range [2][]K{d.Deleted, d.Refreshed} {
		dst = appendUvarint(dst, uint64(len(keys)))
		for _, k := range keys {
			dst = key(dst, k)
		}
	}
	return dst
}

// parseDelta is the delta decoder, reusing v's slice capacity. rec
// decodes one changed record of at least minRec bytes in place, key one
// key of at least minKey bytes; the minima bound the counts a payload
// may claim before anything is allocated for them.
//
// A changed record is decoded over the one its slot held in the last
// parse, so a name that did not change is not copied again. That holds
// only because every rec writes every field of the record; one that
// skipped a field would leak the last delta's value into this one.
func parseDelta[V, K any](v *Delta[V, K], b []byte, minRec int, rec func([]byte, *V) ([]byte, error), minKey int, key func([]byte) (K, []byte, error)) error {
	v.Reset(0, 0)
	var err error
	if v.BaseVer, b, err = readUvarint(b); err != nil {
		return err
	}
	if v.NewVer, b, err = readUvarint(b); err != nil {
		return err
	}
	var n uint64
	if n, b, err = readUvarint(b); err != nil {
		return err
	}
	if err = countCap(n, len(b), minRec); err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		// Decoded where it will stay: a record handed to rec by address
		// from a local would be allocated apiece.
		v.Changed = slices.Grow(v.Changed, 1)[:i+1]
		if b, err = rec(b, &v.Changed[i]); err != nil {
			return err
		}
	}
	for _, keys := range [2]*[]K{&v.Deleted, &v.Refreshed} {
		if n, b, err = readUvarint(b); err != nil {
			return err
		}
		if err = countCap(n, len(b), minKey); err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			var k K
			if k, b, err = key(b); err != nil {
				return err
			}
			*keys = append(*keys, k)
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("status: %d trailing bytes after delta", len(b))
	}
	return nil
}

// AppendSysDelta appends the encoded delta to dst and returns the
// extended buffer, so per-tick encoders reuse one buffer.
func AppendSysDelta(dst []byte, d *SysDelta) []byte {
	return appendDelta(dst, d, appendStatusDelta, appendVString)
}

// AppendNetDelta appends the encoded delta to dst.
func AppendNetDelta(dst []byte, d *NetDelta) []byte {
	return appendDelta(dst, d, appendNetDelta, appendNetKey)
}

// AppendSecDelta appends the encoded delta to dst.
func AppendSecDelta(dst []byte, d *SecDelta) []byte {
	return appendDelta(dst, d, appendSecDelta, appendVString)
}

// Parse decodes a TypeSysDelta payload into v, reusing v's slice
// capacity. Deleted and Refreshed alias b.
func (v *SysDeltaView) Parse(b []byte) error { return v.ParseWith(b, nil) }

// ParseWith is Parse interning the changed records' hosts in names.
func (v *SysDeltaView) ParseWith(b []byte, names Names) error {
	return parseDelta((*Delta[ServerStatus, []byte])(v), b, 64, func(b []byte, s *ServerStatus) ([]byte, error) {
		return readStatus(b, s, names, readVBytes, readUvarint)
	}, 1, readVBytes)
}

// Parse decodes a TypeNetDelta payload into v, reusing v's slice
// capacity. Deleted and Refreshed alias b.
func (v *NetDeltaView) Parse(b []byte) error {
	return parseDelta((*Delta[NetMetric, NetKeyView])(v), b, 12, readNetDelta, 2, readNetKeyView)
}

// Parse decodes a TypeSecDelta payload into v, reusing v's slice
// capacity. Deleted and Refreshed alias b.
func (v *SecDeltaView) Parse(b []byte) error {
	return parseDelta((*Delta[SecLevel, []byte])(v), b, 2, readSecDelta, 1, readVBytes)
}

// --- snap marks and versioned pull requests ---------------------------

// AppendSnapMark encodes a TypeSnapMark payload: the version the
// stream's receiver now holds.
func AppendSnapMark(dst []byte, ver uint64) []byte {
	return appendUvarint(dst, ver)
}

// ParseSnapMark decodes a TypeSnapMark payload.
func ParseSnapMark(b []byte) (uint64, error) {
	v, rest, err := readUvarint(b)
	if err != nil {
		return 0, fmt.Errorf("status: bad snap mark: %w", err)
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("status: %d trailing bytes after snap mark", len(rest))
	}
	return v, nil
}

// AppendPullRequest encodes a TypeRequest payload carrying the
// puller's base version. Base 0 encodes as the empty thesis request.
func AppendPullRequest(dst []byte, base uint64) []byte {
	if base == 0 {
		return dst
	}
	return appendUvarint(dst, base)
}

// ParsePullRequest decodes a TypeRequest payload; the empty thesis
// request means base 0 (send a full snapshot).
func ParsePullRequest(b []byte) (uint64, error) {
	if len(b) == 0 {
		return 0, nil
	}
	v, rest, err := readUvarint(b)
	if err != nil {
		return 0, fmt.Errorf("status: bad pull request: %w", err)
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("status: %d trailing bytes after pull request", len(rest))
	}
	return v, nil
}
