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
	"fmt"
	"math"
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
	// the scan interval. CPUFree is the idle fraction (host_cpu_free).
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

// CPUFree reports the idle CPU fraction, the host_cpu_free variable.
func (s *ServerStatus) CPUFree() float64 { return s.CPUIdle }

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
	{"host_cpu_free", VarField{6, 0}}, // CPUFree is the idle fraction
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
		dst = strconv.AppendUint(append(dst, '|'), v, 10)
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
func appendReportFloat(dst []byte, v float64) []byte {
	if v == 0 && !math.Signbit(v) {
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
	m := uint64(x + 0.5) // x < 1e15, so the sum is exact
	if float64(m)/pow10[k] != a {
		return strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	exp := 14 - k  // the power of ten of m's leading digit…
	if m == 1e15 { // …unless x rounded up to 10^15
		exp++
	}
	for m%1e4 == 0 {
		m, k = m/1e4, k-4
	}
	for m%10 == 0 {
		m, k = m/10, k-1
	}
	// m·10^-k right to left: frac digits after the point, none if frac ≤ 0.
	var buf [24]byte
	i, frac := len(buf), k
	if exp < -4 || exp >= 6 { // strconv's 'g' turns to d.ddde±XX here
		frac += exp
		sign := byte('+')
		if exp < 0 {
			sign, exp = '-', -exp
		}
		i -= 4
		buf[i], buf[i+1], buf[i+2], buf[i+3] = 'e', sign, byte('0'+exp/10), byte('0'+exp%10)
	}
	for j := frac; j > 0; j-- {
		i--
		buf[i], m = byte('0'+m%10), m/10
	}
	if frac > 0 {
		i--
		buf[i] = '.'
	}
	for j := frac; j < 0; j++ { // an integer's trailing zeros, at most five
		i--
		buf[i] = '0'
	}
	for ; m >= 10; m /= 10 {
		i--
		buf[i] = byte('0' + m%10)
	}
	i--
	buf[i] = byte('0' + m)
	if v < 0 {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:]...)
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
	sc := reportScanner{rest: data}
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
	rest []byte
	n    int // fields returned so far
	err  error
}

// next returns the next field; the caller has counted the separators.
func (sc *reportScanner) next() []byte {
	sc.n++
	v := sc.rest
	if j := bytes.IndexByte(v, '|'); j >= 0 {
		v, sc.rest = v[:j], v[j+1:]
	}
	return v
}

func (sc *reportScanner) float(dst *float64) {
	if sc.err != nil {
		return
	}
	v := sc.next()
	var ok bool
	if *dst, ok = shortFloat(v); ok {
		return
	}
	// A number's string never leaves ParseFloat, so a short one is
	// converted on the stack.
	var err error
	if *dst, err = strconv.ParseFloat(string(v), 64); err != nil {
		sc.err = fmt.Errorf("status: bad float field %d %q: %v", sc.n-1, v, err)
	}
}

// shortFloat converts a field of at most 16 bytes shaped
// [-]digits[.digits][(e|E)[±]digits] whose digits form an m < 2^52 and
// whose value m·10^e is in strconv's exact window (|e| ≤ 22, or e ≤ 37
// with m·10^(e−22) ≤ 1e15): one correctly rounded multiply or divide of
// exact operands, so ParseFloat's bits. It declines the rest, errors
// included; the length bound keeps 17-digit /proc rates off the scan.
func shortFloat(b []byte) (float64, bool) {
	if len(b) > 16 {
		return 0, false
	}
	sign := 1.0
	if len(b) > 0 && b[0] == '-' {
		sign, b = -1, b[1:]
	}
	m, n, b := digitRun(0, b)
	exp := 0
	if len(b) > 0 && b[0] == '.' {
		m, exp, b = digitRun(m, b[1:])
		n, exp = n+exp, -exp
	}
	if n == 0 || m >= 1<<52 {
		return 0, false
	}
	if len(b) > 0 && (b[0] == 'e' || b[0] == 'E') {
		b = b[1:]
		eneg := len(b) > 0 && b[0] == '-'
		if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
			b = b[1:]
		}
		e, ne, rest := digitRun(0, b)
		if ne == 0 || e > 99 { // past 99, m·10^e is out of the window
			return 0, false
		}
		if b = rest; eneg {
			exp -= int(e)
		} else {
			exp += int(e)
		}
	}
	f := sign * float64(m) // exact, −0 included
	switch {
	case len(b) != 0 || exp < -22 || exp > 37:
		return 0, false
	case exp < 0:
		return f / pow10[-exp], true
	case exp > 22:
		f, exp = f*pow10[exp-22], 22
	}
	return f * pow10[exp], exp == 0 || f <= 1e15 && f >= -1e15
}

// digitRun appends b's leading decimal digits to m: m, their count, the rest.
func digitRun(m uint64, b []byte) (uint64, int, []byte) {
	i := 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	return m, i, b[i:]
}

func (sc *reportScanner) uint(dst *uint64) {
	if sc.err != nil {
		return
	}
	v := sc.next()
	var err error
	if *dst, err = strconv.ParseUint(string(v), 10, 64); err != nil {
		sc.err = fmt.Errorf("status: bad uint field %d %q: %v", sc.n-1, v, err)
	}
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
