// Package status defines the record types exchanged between the Smart
// socket components — server status reports produced by probes, network
// metric records produced by network monitors, and security records
// produced by security monitors — together with the two wire codecs the
// thesis describes: the endian-safe ASCII probe-report format (§3.2.1),
// whose short decimals bypass strconv to the same bytes, and the binary
// [type,size,data] framing between transmitter and receiver (§3.5.1).
// Decoders write every field, keep unchanged names and intern hosts.
package status

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"time"
)

// RecordType tags the payload of a transmitter frame (§3.5.1).
type RecordType uint8

const (
	// TypeSystem frames carry a batch of ServerStatus records.
	TypeSystem RecordType = 1
	// TypeNetwork frames carry a batch of NetMetric records.
	TypeNetwork RecordType = 2
	// TypeSecurity frames carry a batch of SecLevel records.
	TypeSecurity RecordType = 3
	// TypeRequest frames carry an update request from a wizard to a
	// transmitter running in distributed (passive) mode. Since the
	// delta protocol the payload may carry the puller's base version
	// (varint); an empty payload is the thesis request and asks for a
	// full snapshot.
	TypeRequest RecordType = 4
	// TypeSysDelta frames carry a SysDelta: the server status records
	// that changed since a base version, plus tombstones and
	// refreshes.
	TypeSysDelta RecordType = 5
	// TypeNetDelta frames carry a NetDelta.
	TypeNetDelta RecordType = 6
	// TypeSecDelta frames carry a SecDelta.
	TypeSecDelta RecordType = 7
	// TypeSnapMark frames close a full snapshot (or a pull reply) and
	// carry the database version the preceding frames brought the
	// receiver to. The thesis-fidelity compat mode never sends one.
	TypeSnapMark RecordType = 8
)

func (t RecordType) String() string {
	switch t {
	case TypeSystem:
		return "system"
	case TypeNetwork:
		return "network"
	case TypeSecurity:
		return "security"
	case TypeRequest:
		return "request"
	case TypeSysDelta:
		return "sys-delta"
	case TypeNetDelta:
		return "net-delta"
	case TypeSecDelta:
		return "sec-delta"
	case TypeSnapMark:
		return "snap-mark"
	}
	return fmt.Sprintf("RecordType(%d)", uint8(t))
}

// ServerStatus is one server's resource usage snapshot, assembled by a
// server probe from the five /proc files in Table 3.1 (or from a
// synthetic source on a simulated host). All rate fields are per-second
// values computed by the probe across its scan interval.
type ServerStatus struct {
	Host string // address the probe reports for itself (IP or name)

	// /proc/loadavg
	Load1, Load5, Load15 float64

	// /proc/stat cpu line, normalised to fractions of total time over
	// the scan interval. CPUIdle is read as host_cpu_free too.
	CPUUser, CPUNice, CPUSystem, CPUIdle float64

	// /proc/cpuinfo: the thesis requirement language exposes bogomips
	// so users can select by raw processor speed (Tables 5.3–5.4).
	Bogomips float64

	// /proc/meminfo, in bytes. The requirement language exposes
	// host_memory_free in megabytes, as the thesis examples use
	// "host_memory_free > 5" to mean 5 MB.
	MemTotal, MemUsed, MemFree uint64

	// /proc/stat disk_io, per-second rates.
	DiskAllReq, DiskRReq, DiskRBlocks, DiskWReq, DiskWBlocks float64

	// /proc/net/dev for the primary interface, per-second rates.
	NetIface                                               string
	NetRBytesPS, NetRPacketsPS, NetTBytesPS, NetTPacketsPS float64
}

// NetMetric is one (delay, bandwidth) measurement between two network
// monitors (Table 3.4). Bandwidth is in bits per second.
type NetMetric struct {
	From, To  string
	Delay     time.Duration
	Bandwidth float64
}

// SecLevel is one host's security clearance level (§3.4.1): an integer
// where higher means more trusted.
type SecLevel struct {
	Host  string
	Level int
}

// Fields lists a report's numeric fields: its floats in wire order
// (load and CPU, disk, network) and its memory counters. Readers that
// hold the fields apart — the snapshot's columns — walk these rather
// than name every field.
func (s *ServerStatus) Fields() (floats [17]*float64, mems [3]*uint64) {
	return [...]*float64{&s.Load1, &s.Load5, &s.Load15, &s.CPUUser, &s.CPUNice, &s.CPUSystem, &s.CPUIdle, &s.Bogomips,
			&s.DiskAllReq, &s.DiskRReq, &s.DiskRBlocks, &s.DiskWReq, &s.DiskWBlocks,
			&s.NetRBytesPS, &s.NetRPacketsPS, &s.NetTBytesPS, &s.NetTPacketsPS},
		[...]*uint64{&s.MemTotal, &s.MemUsed, &s.MemFree}
}

// VarField says where a variable's value comes from: float Field of
// Fields as it is, or, when Scale is not 0, memory counter Field times
// Scale (units per byte). Scale is a power of two, so the product is
// exactly the quotient by bytes per unit, at the cost of a multiply.
type VarField struct {
	Field int
	Scale float64
}

// perMB is the Scale of a variable counted in MB.
const perMB = 1.0 / (1 << 20)

// vars lists the server-side variables a status report defines
// (Appendix B.1), in the order VarAt indexes them.
var vars = [...]struct {
	name string
	VarField
}{
	{"host_system_load1", VarField{0, 0}},
	{"host_system_load5", VarField{1, 0}},
	{"host_system_load15", VarField{2, 0}},
	{"host_cpu_user", VarField{3, 0}},
	{"host_cpu_nice", VarField{4, 0}},
	{"host_cpu_system", VarField{5, 0}},
	{"host_cpu_idle", VarField{6, 0}},
	{"host_cpu_free", VarField{6, 0}}, // the same field as host_cpu_idle
	{"host_cpu_bogomips", VarField{7, 0}},
	{"host_memory_total", VarField{0, perMB}},
	{"host_memory_used", VarField{1, perMB}},
	{"host_memory_free", VarField{2, perMB}},
	{"host_memory_total_bytes", VarField{0, 1}},
	{"host_memory_used_bytes", VarField{1, 1}},
	{"host_memory_free_bytes", VarField{2, 1}},
	{"host_disk_allreq", VarField{8, 0}},
	{"host_disk_rreq", VarField{9, 0}},
	{"host_disk_rblocks", VarField{10, 0}},
	{"host_disk_wreq", VarField{11, 0}},
	{"host_disk_wblocks", VarField{12, 0}},
	{"host_network_rbytesps", VarField{13, 0}},
	{"host_network_rpacketsps", VarField{14, 0}},
	{"host_network_tbytesps", VarField{15, 0}},
	{"host_network_tpacketsps", VarField{16, 0}},
}

// VarIndex resolves a server-side variable name to its VarAt index,
// -1 for a name no report defines. Callers that evaluate one
// requirement against many records resolve the names once and read
// each record by index.
func VarIndex(name string) int {
	for i := range vars {
		if vars[i].name == name {
			return i
		}
	}
	return -1
}

// FieldOf returns where the variable VarIndex resolved to i is read
// from, so a reader of many records converts a column at a time.
func FieldOf(i int) VarField { return vars[i].VarField }

// VarAt returns the value of the variable VarIndex resolved to i, 0
// for -1: one field read, with no string comparison per record.
func (s *ServerStatus) VarAt(i int) float64 {
	if i < 0 {
		return 0
	}
	f := vars[i].VarField
	floats, mems := s.Fields()
	if f.Scale == 0 {
		return *floats[f.Field]
	}
	return float64(*mems[f.Field]) * f.Scale
}

// Vars flattens a ServerStatus into the server-side variable bindings
// the wizard hands to the requirement evaluator (Appendix B.1). Network
// and security variables are merged in by the wizard because they come
// from different databases.
func (s *ServerStatus) Vars() map[string]float64 {
	m := make(map[string]float64, len(vars))
	for i := range vars {
		m[vars[i].name] = s.VarAt(i)
	}
	return m
}

// Var returns the value of one named server-side variable, the
// per-name view of Vars.
func (s *ServerStatus) Var(name string) (float64, bool) {
	i := VarIndex(name)
	return s.VarAt(i), i >= 0
}

// reportVersion is the leading tag of the ASCII probe report. Bump it
// when fields change; decoders reject unknown versions rather than
// guessing.
const reportVersion = "SSR1"

// reportFieldCount is the number of '|'-separated fields after the
// version tag in an encoded report.
const reportFieldCount = 22

// EncodeReport renders a ServerStatus as the compact ASCII probe report
// of §3.2.1. Numbers travel as decimal strings, so probes on big- and
// little-endian machines interoperate without alignment or byte-order
// concerns, at the cost of a larger message: under 200 bytes in the
// thesis, 181–205 for a 1000-host synthetic fleet, ≈300 for /proc rates.
func EncodeReport(s *ServerStatus) []byte {
	var buf [512]byte
	return bytes.Clone(AppendReport(buf[:0], s))
}

// AppendReport appends the report EncodeReport renders to dst: a probe
// that keeps its buffer sends reports without allocating.
func AppendReport(dst []byte, s *ServerStatus) []byte {
	dst = append(dst, reportVersion...)
	dst = appendEscaped(append(dst, '|'), s.Host)
	for _, v := range [...]float64{s.Load1, s.Load5, s.Load15, s.CPUUser, s.CPUNice, s.CPUSystem, s.CPUIdle, s.Bogomips} {
		dst = appendReportFloat(append(dst, '|'), v)
	}
	for _, v := range [...]uint64{s.MemTotal, s.MemUsed, s.MemFree} {
		dst = appendReportUint(append(dst, '|'), v)
	}
	for _, v := range [...]float64{s.DiskAllReq, s.DiskRReq, s.DiskRBlocks, s.DiskWReq, s.DiskWBlocks} {
		dst = appendReportFloat(append(dst, '|'), v)
	}
	dst = appendEscaped(append(dst, '|'), s.NetIface)
	for _, v := range [...]float64{s.NetRBytesPS, s.NetRPacketsPS, s.NetTBytesPS, s.NetTPacketsPS} {
		dst = appendReportFloat(append(dst, '|'), v)
	}
	return dst
}

// pow10 holds 1e0 … 1e22, the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// pow10u holds 1 … 1e8, the scale of a digit run of 0 to 8 digits.
var pow10u = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// ascii turns eight digit values, one a byte, into their characters.
const ascii = 0x3030303030303030

// appendReportFloat appends what strconv.AppendFloat(dst, v, 'g', -1,
// 64) does, without its shortest-digit search for a short decimal: a
// loadavg or bogomips figure, a zero rate, not a rate over a measured dt.
//
// For 1e-5 ≤ |v| < 1e15, m = round(|v|·10^k), k = 14 − ⌊log10|v|⌋, is
// |v| to 15 digits. float64(m) and 10^k (k ≤ 20) are exact, so the
// correctly rounded float64(m)/10^k equals |v| exactly when the decimal
// m·10^-k rounds to v. A decimal of at most 15 significant digits
// survives a float64 round trip (DBL_DIG), so no other one that short
// rounds to v: m·10^-k, trailing zeros stripped, is strconv's shortest
// output, laid out by its 'g' rule. The rest is strconv's: −0, NaN,
// ±Inf, subnormals, |v| ≥ 1e15, more than 15 significant digits.
//
// The digits are laid out eight to a word (spread8) and stored a word
// at a time; the trailing zeros are the word's high zero bytes.
func appendReportFloat(dst []byte, v float64) []byte {
	if math.Float64bits(v) == 0 { // +0, not −0
		return append(dst, '0')
	}
	a := math.Abs(v)
	if !(a >= 1e-5 && a < 1e15) {
		return strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	// ⌊log2 a⌋·log10(2) is ⌊log10 a⌋ or one less; one less is corrected.
	k := 14 - (int(math.Float64bits(a)>>52)-1023)*78913>>18
	x := a * pow10[k]
	if x >= 1e15 {
		k, x = k-1, a*pow10[k-1]
	}
	m := int64(x + 0.5) // x < 1e15, so the sum is exact
	if float64(m)/pow10[k] != a {
		return strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	exp := 14 - k  // the power of ten of m's leading digit…
	if m == 1e15 { // …unless x rounded up to 10^15
		m, exp = 1e14, exp+1
	}
	// m·10 is 16 digits d0…d15 with d0 ≠ 0, and |v| = d0.d1…d15·10^exp;
	// n of them are significant.
	hi, lo, n := spread8(uint32(m/1e7)), uint64(0), 0
	if r := m % 1e7; r != 0 {
		lo = spread8(uint32(r * 10))
		n = 16 - bits.LeadingZeros64(lo)>>3
	} else { // at most eight significant digits, as most reports' figures
		n = 8 - bits.LeadingZeros64(hi)>>3
	}
	hi, lo = hi|ascii, lo|ascii
	dst = slices.Grow(dst, 32)
	i := len(dst)
	b := dst[i : i+32]
	j := 0
	if v < 0 {
		b[0], j = '-', 1
	}
	if exp < 0 && exp >= -4 { // 0.000ddd
		binary.LittleEndian.PutUint64(b[j:], 0x3030303030302e30) // "0.000000"
		j += 1 - exp
		putDigits(b[j:], hi, lo, 0)
		return dst[:i+j+n]
	}
	sci := exp < -4 || exp >= 6 // strconv's 'g' turns to d.ddde±XX here
	point := 1                  // the digits before the point
	if !sci {
		point = exp + 1
	}
	binary.LittleEndian.PutUint64(b[j:], hi)
	b[j+point] = '.'
	putDigits(b[j+point+1:], hi, lo, point)
	if j += point; n > point {
		j += n - point + 1
	}
	if sci {
		sign := byte('+')
		if exp < 0 {
			sign, exp = '-', -exp
		}
		b[j], b[j+1], b[j+2], b[j+3] = 'e', sign, byte('0'+exp/10), byte('0'+exp%10)
		j += 4
	}
	return dst[:i+j]
}

// appendReportUint appends u in decimal, as strconv.AppendUint does.
func appendReportUint(dst []byte, u uint64) []byte {
	if u >= 1e16 {
		return strconv.AppendUint(dst, u, 10)
	}
	hi, lo := spread8(uint32(u/1e8)), spread8(uint32(u%1e8))
	lead := bits.TrailingZeros64(hi) >> 3 // zero digits before the first
	if hi == 0 {
		lead = min(8+bits.TrailingZeros64(lo)>>3, 15)
	}
	dst = slices.Grow(dst, 16)
	i := len(dst)
	putDigits(dst[i:i+16], hi|ascii, lo|ascii, lead)
	return dst[:i+16-lead]
}

// spread8 lays u < 10^8 out as its eight decimal digit values, the
// leading one in the low byte, so a little-endian store writes them in
// reading order: 4+4 digits in two 32-bit lanes, then 2+2 in four
// 16-bit lanes, then one a byte. Each step splits every lane v into
// q = ⌊v/d⌋ and v − q·d one lane up, as v·2^w − q·(d·2^w − 1), with q
// from a multiply by a reciprocal exact over the lane's range
// (⌊v·10486/2^20⌋ = ⌊v/100⌋ for v < 10^4, ⌊v·103/2^10⌋ = ⌊v/10⌋ for
// v < 100).
func spread8(u uint32) uint64 {
	x := uint64(u)<<32 - uint64(u/1e4)*(1e4<<32-1)
	x = x<<16 - (x*10486>>20&0x0000007f0000007f)*(100<<16-1)
	return x<<8 - (x*103>>10&0x000f000f000f000f)*(10<<8-1)
}

// putDigits stores the sixteen digit characters hi‖lo, the first skip
// of them dropped, at b[0:16].
func putDigits(b []byte, hi, lo uint64, skip int) {
	if skip >= 8 {
		hi, lo, skip = lo, 0, skip-8
	}
	s := uint(skip*8) & 63
	binary.LittleEndian.PutUint64(b, hi>>s|lo<<(63-s)<<1) // lo<<(64−s), 0 for s = 0
	binary.LittleEndian.PutUint64(b[8:], lo>>s)
}

// DecodeReport parses an ASCII probe report produced by EncodeReport
// into a fresh record.
func DecodeReport(data []byte) (*ServerStatus, error) {
	s := &ServerStatus{}
	if err := DecodeReportInto(s, data, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeReportInto parses an ASCII probe report into dst, scanning the
// '|' fields of the datagram where they lie: it allocates only the names
// that differ from dst's and that names does not know. On error dst
// holds the fields decoded before the bad one and is of no use.
func DecodeReportInto(dst *ServerStatus, data []byte, names Names) error {
	if n := bytes.Count(data, []byte{'|'}); n != reportFieldCount {
		return fmt.Errorf("status: report has %d fields, want %d", n, reportFieldCount)
	}
	sc := reportScanner{b: data}
	if v := sc.next(); string(v) != reportVersion {
		return fmt.Errorf("status: unknown report version %q", v)
	}
	dst.Host = unescapeName(dst.Host, sc.next(), names)
	for _, f := range [...]*float64{&dst.Load1, &dst.Load5, &dst.Load15, &dst.CPUUser, &dst.CPUNice, &dst.CPUSystem, &dst.CPUIdle, &dst.Bogomips} {
		sc.float(f)
	}
	for _, u := range [...]*uint64{&dst.MemTotal, &dst.MemUsed, &dst.MemFree} {
		sc.uint(u)
	}
	for _, f := range [...]*float64{&dst.DiskAllReq, &dst.DiskRReq, &dst.DiskRBlocks, &dst.DiskWReq, &dst.DiskWBlocks} {
		sc.float(f)
	}
	dst.NetIface = unescapeName(dst.NetIface, sc.next(), nil)
	for _, f := range [...]*float64{&dst.NetRBytesPS, &dst.NetRPacketsPS, &dst.NetTBytesPS, &dst.NetTPacketsPS} {
		sc.float(f)
	}
	return sc.err
}

// reportScanner walks the '|' fields of one report. The first number
// that does not parse sticks in err and the fields after it are skipped.
type reportScanner struct {
	b   []byte
	i   int // where the next field starts
	n   int // fields read so far
	err error
}

// next returns the next field; the caller has counted the separators.
func (sc *reportScanner) next() []byte {
	sc.n++
	v := sc.b[sc.i:]
	if j := bytes.IndexByte(v, '|'); j >= 0 {
		v = v[:j]
	}
	sc.i += len(v) + 1
	return v
}

func (sc *reportScanner) float(dst *float64) {
	if sc.err != nil {
		return
	}
	if f, end, ok := scanFloat(sc.b, sc.i); ok {
		*dst, sc.i = f, end+1
		sc.n++
		return
	}
	v := sc.next()
	// A number's string never leaves ParseFloat, so a short one is
	// converted on the stack.
	var err error
	if *dst, err = strconv.ParseFloat(string(v), 64); err != nil {
		sc.err = fmt.Errorf("status: bad float field %d %q: %v", sc.n-1, v, err)
	}
}

func (sc *reportScanner) uint(dst *uint64) {
	if sc.err != nil {
		return
	}
	if u, n, end, c := digitRun(sc.b, sc.i, 0, 0); n > 0 && c == '|' {
		*dst, sc.i = u, end+1
		sc.n++
		return
	}
	v := sc.next()
	var err error
	if *dst, err = strconv.ParseUint(string(v), 10, 64); err != nil {
		sc.err = fmt.Errorf("status: bad uint field %d %q: %v", sc.n-1, v, err)
	}
}

// scanFloat converts the field at b[i:], up to the next '|' or the end
// of b, if it is shaped [-]digits[.digits][(e|E)[±]digits] with digits
// that form an m < 2^52 and a value m·10^e in strconv's exact window
// (|e| ≤ 22, or e ≤ 37 with m·10^(e−22) ≤ 1e15): one correctly rounded
// multiply or divide of exact operands, so ParseFloat's bits. It returns
// the value and where the field ends, and declines the rest, errors
// included.
func scanFloat(b []byte, i int) (float64, int, bool) {
	sign := 1.0
	if i < len(b) && b[i] == '-' {
		sign, i = -1, i+1
	}
	// The integer and the fraction each start with one word in place; a
	// run of eight goes on through digitRun.
	n, m, c := eightDigits(load8(b, i))
	if i += n; n == 8 {
		m, n, i, c = digitRun(b, i, m, n)
	}
	exp := 0
	if c == '.' {
		k, v, next := eightDigits(load8(b, i+1))
		m, n, i, c, exp = m*pow10u[k]+v, n+k, i+1+k, next, -k
		if k == 8 {
			var all int
			m, all, i, c = digitRun(b, i, m, n)
			n, exp = all, exp-(all-n)
		}
	}
	if n == 0 || n > 16 || m >= 1<<52 {
		return 0, 0, false
	}
	if c == 'e' || c == 'E' {
		w := load8(b, i+1) // the sign, if any, and the digits
		eneg := byte(w) == '-'
		if i++; eneg || byte(w) == '+' {
			w, i = w>>8, i+1
		}
		k, e, next := eightDigits(w)
		if k == 0 || k == 8 || e > 99 { // past 99, m·10^e is out of the window
			return 0, 0, false
		}
		if i, c = i+k, next; eneg {
			exp -= int(e)
		} else {
			exp += int(e)
		}
	}
	f := sign * float64(int64(m)) // exact, −0 included
	switch {
	case c != '|' || exp < -22 || exp > 37:
		return 0, 0, false
	case exp < 0:
		return f / pow10[-exp], i, true
	case exp > 22:
		f, exp = f*pow10[exp-22], 22
	}
	return f * pow10[exp], i, exp == 0 || f <= 1e15 && f >= -1e15
}

// digitRun appends the decimal digits at b[i:] to m, which holds n of
// them, eight bytes at a time: m, the digit count, the index after the
// run and the byte there, '|' at the end of b. Past 16 digits it
// returns a count of 0 and a byte of 0, which no caller accepts.
func digitRun(b []byte, i int, m uint64, n int) (uint64, int, int, byte) {
	for {
		k, v, c := eightDigits(load8(b, i))
		if n += k; n > 16 {
			return 0, 0, i, 0
		}
		if m, i = m*pow10u[k]+v, i+k; k < 8 {
			return m, n, i, c
		}
	}
}

// load8 reads b[i:i+8] little-endian, '|' standing in past the end.
func load8(b []byte, i int) uint64 {
	if i+8 <= len(b) {
		return binary.LittleEndian.Uint64(b[i:])
	}
	w := [8]byte{'|', '|', '|', '|', '|', '|', '|', '|'}
	copy(w[:], b[i:])
	return binary.LittleEndian.Uint64(w[:])
}

// eightDigits returns the length k of the run of ASCII digits that w's
// bytes start with, in reading order, the run's value and the byte after
// it (of no meaning after eight digits). A byte is not a digit when it
// is under '0' (the subtraction borrows into its high bit) or over '9'
// (the sum carries into it); a lane's carry or borrow reaches only the
// lanes after it, past the run's end. The run, shifted to the top with
// zero digits before it, is summed by three multiplies: pairs, then
// pairs of pairs at ×100, then the two halves at ×10^4.
func eightDigits(w uint64) (int, uint64, byte) {
	// s is 8·k; two shifts by h make one by 64 − 8·k, which may be 64.
	s := uint(bits.TrailingZeros64(((w+0x4646464646464646)|(w-ascii))&0x8080808080808080)) &^ 7
	h := (32 - s>>1) & 63
	v := (w - ascii) << h << h
	v = v*10 + v>>8
	return int(s >> 3), ((v&0x000000ff000000ff)*(100+1000000<<32) + (v>>16&0x000000ff000000ff)*(1+10000<<32)) >> 32, byte(w >> (s & 63))
}

// appendEscaped appends s with the report's '|' separator protected
// inside free-form string fields (host names, interface names).
func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '%':
			dst = append(dst, "%25"...)
		case '|':
			dst = append(dst, "%7C"...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

func unescapeField(s string) string {
	s = strings.ReplaceAll(s, "%7C", "|")
	return strings.ReplaceAll(s, "%25", "%")
}

// unescapeName decodes name field raw over cur, the record's name, which
// is kept if raw spells it with nothing escaped.
func unescapeName(cur string, raw []byte, names Names) string {
	if bytes.IndexByte(raw, '%') >= 0 {
		return unescapeField(string(raw))
	}
	return internName(cur, raw, names)
}

// Names finds the string a table keys host b by, for a decoder to take
// instead of allocating the name again. Name must not keep b.
type Names interface {
	Name(b []byte) (string, bool)
}

// internName returns cur if raw spells it, else the string names knows
// raw by, else raw as a new string: never a view of raw's buffer.
func internName(cur string, raw []byte, names Names) string {
	if string(raw) == cur {
		return cur
	}
	if names != nil {
		if s, ok := names.Name(raw); ok {
			return s
		}
	}
	return string(raw)
}
