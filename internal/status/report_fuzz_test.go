package status

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// splitReport is the decoder DecodeReportInto replaced, kept as its
// oracle: the datagram as one string, cut by strings.Split.
func splitReport(data []byte) (*ServerStatus, error) {
	parts := strings.Split(string(data), "|")
	if len(parts) != reportFieldCount+1 {
		return nil, fmt.Errorf("status: report has %d fields, want %d", len(parts)-1, reportFieldCount)
	}
	if parts[0] != reportVersion {
		return nil, fmt.Errorf("status: unknown report version %q", parts[0])
	}
	s := &ServerStatus{}
	i := 1
	next := func() string { v := parts[i]; i++; return v }
	var err error
	f := func(dsts ...*float64) {
		for _, dst := range dsts {
			if err != nil {
				return
			}
			v := next()
			if *dst, err = strconv.ParseFloat(v, 64); err != nil {
				err = fmt.Errorf("status: bad float field %d %q: %v", i-1, v, err)
			}
		}
	}
	u := func(dsts ...*uint64) {
		for _, dst := range dsts {
			if err != nil {
				return
			}
			v := next()
			if *dst, err = strconv.ParseUint(v, 10, 64); err != nil {
				err = fmt.Errorf("status: bad uint field %d %q: %v", i-1, v, err)
			}
		}
	}
	s.Host = unescapeField(next())
	f(&s.Load1, &s.Load5, &s.Load15, &s.CPUUser, &s.CPUNice, &s.CPUSystem, &s.CPUIdle, &s.Bogomips)
	u(&s.MemTotal, &s.MemUsed, &s.MemFree)
	f(&s.DiskAllReq, &s.DiskRReq, &s.DiskRBlocks, &s.DiskWReq, &s.DiskWBlocks)
	s.NetIface = unescapeField(next())
	f(&s.NetRBytesPS, &s.NetRPacketsPS, &s.NetTBytesPS, &s.NetTPacketsPS)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// sameStatus compares two records field by field, floats by their bits
// so that NaN equals NaN and -0 differs from 0.
func sameStatus(a, b *ServerStatus) bool {
	fa, ma := a.Fields()
	fb, mb := b.Fields()
	for i := range fa {
		if math.Float64bits(*fa[i]) != math.Float64bits(*fb[i]) {
			return false
		}
	}
	for i := range ma {
		if *ma[i] != *mb[i] {
			return false
		}
	}
	return a.Host == b.Host && a.NetIface == b.NetIface
}

// FuzzDecodeReport feeds the probe-report decoder — the one parser any
// UDP sender on the network reaches — arbitrary datagrams: it must
// agree with the split-based decoder on the record or, word for word,
// on the error, and whatever it accepts must survive AppendReport and
// a second decode.
func FuzzDecodeReport(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeReport(&ServerStatus{}))
	f.Add(EncodeReport(sampleStatus()))
	f.Add(EncodeReport(&ServerStatus{Host: "we|rd%7Chost%", NetIface: "|%|"}))
	f.Add([]byte("SSR2|" + strings.Repeat("0|", reportFieldCount-1) + "0"))
	f.Add([]byte("SSR1|h|x" + strings.Repeat("|0", reportFieldCount-2)))
	f.Add([]byte("SSR1|h" + strings.Repeat("|0", 8) + "|-1" + strings.Repeat("|0", reportFieldCount-10)))
	f.Add(bytes.Repeat([]byte{'|'}, reportFieldCount))
	// The word-at-a-time scanner's edges: an exponent in the last two
	// fields, a last field of 1, 8 and 9 bytes, runs of 8, 15 and 16
	// digits, a byte past '9' that carries across lanes, short shapes.
	rate := *sampleStatus()
	rate.NetTBytesPS, rate.NetTPacketsPS = 3.4998765e+06, 1e6
	f.Add(EncodeReport(&rate))
	rate.NetTBytesPS, rate.NetTPacketsPS = 1e6, 3.4998765e+06
	f.Add(EncodeReport(&rate))
	for _, last := range []string{"7", "1234.567", "12345.678"} {
		f.Add(reportOf(map[int]string{21: last}))
	}
	f.Add(reportOf(map[int]string{1: "12345678", 2: "123456789012345", 3: "1234567890123456", 8: "1234567812345678", 21: "1234567890123456"}))
	f.Add(reportOf(map[int]string{1: "12\xfa", 2: "12345678\xff", 8: "9\xfe", 21: "1234567\xfb"}))
	f.Add(reportOf(map[int]string{1: "-", 2: "5.", 3: ".5", 4: "-0", 5: "1e+06", 20: "-0", 21: "1e+06"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := splitReport(data)
		got, err := DecodeReport(data)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("DecodeReport(%q): error %v, the split decoder's %v", data, err, wantErr)
		}
		if err != nil {
			return
		}
		if !sameStatus(got, want) {
			t.Fatalf("DecodeReport(%q) = %+v, the split decoder says %+v", data, got, want)
		}
		enc := AppendReport(nil, got)
		var again ServerStatus
		if err := DecodeReportInto(&again, enc, nil); err != nil {
			t.Fatalf("re-decode of %q failed: %v", enc, err)
		}
		if !sameStatus(&again, got) {
			t.Fatalf("record changed across round trip through %q: %+v vs %+v", enc, again, *got)
		}
	})
}

// reportOf is a datagram of the report's fields, "0" but where set
// says otherwise (field 0 is the host).
func reportOf(set map[int]string) []byte {
	b := []byte(reportVersion)
	for i := 0; i < reportFieldCount; i++ {
		v, ok := set[i]
		if !ok {
			v = "0"
		}
		b = append(append(b, '|'), v...)
	}
	return b
}

// FuzzReportFloat holds the report's two float paths to strconv: for
// any float64, appendReportFloat writes the bytes AppendFloat's
// shortest 'g' form does; for any field, scanFloat declines or returns
// the bits ParseFloat does for the bytes up to the first '|' or the end.
func FuzzReportFloat(f *testing.F) {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64,
		1<<52 - 1, 1 << 52, 1<<53 + 1, 0.7343, 3.4998765e+06, 4771.02}
	for _, v := range []float64{1e-5, 1e-4, 1e6, 1e15, 1e21} {
		floats = append(floats, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	for _, v := range floats {
		f.Add(math.Float64bits(v), strconv.FormatFloat(v, 'g', -1, 64))
		f.Add(math.Float64bits(-v), strconv.FormatFloat(-v, 'e', 16, 64))
	}
	for _, s := range []string{"1e", "+1", ".5", "5.", "-.5", "1_0", "0x1p-2", "inf", "1e-400",
		"4503599627370495", "4503599627370496", "9007199254740993", "1e22", "1e23", "9e37", "-0.0e-22", "",
		"-", "-0", "1e+06", "3.4998765e+06", "3.4998765e+06|1", "12345678", "123456789012345", "1234567890123456",
		"12345678.12345678", "12345678901234567", "12\xfa", "12345678\xff", "0.000123|", "1e+0000000000000006"} {
		f.Add(uint64(0), s)
	}
	f.Fuzz(func(t *testing.T, bits uint64, field string) {
		v := math.Float64frombits(bits)
		if got, want := appendReportFloat([]byte("x"), v), strconv.AppendFloat([]byte("x"), v, 'g', -1, 64); !bytes.Equal(got, want) {
			t.Fatalf("appendReportFloat(%#x) = %q, strconv writes %q", bits, got, want)
		}
		got, end, ok := scanFloat([]byte(field), 0)
		if !ok {
			return
		}
		if j := strings.IndexByte(field, '|'); end != j && (j >= 0 || end != len(field)) {
			t.Fatalf("scanFloat(%q) ends at %d, the field at %d", field, end, j)
		}
		want, err := strconv.ParseFloat(field[:end], 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("scanFloat(%q) = %v (%#x), ParseFloat says %v (%#x), %v",
				field, got, math.Float64bits(got), want, math.Float64bits(want), err)
		}
	})
}

// A report decoded into a caller's record costs the strings that differ
// from the record's and nothing else; the monitor pays this once per
// datagram, decoding each over the last.
func TestDecodeReportIntoAllocatesOnlyTheStrings(t *testing.T) {
	enc := EncodeReport(sampleStatus())
	other := *sampleStatus()
	other.Host = "other.lab"
	encs := [2][]byte{enc, EncodeReport(&other)}
	var s ServerStatus
	decode := func(b []byte) {
		if err := DecodeReportInto(&s, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	decode(enc)
	if got := testing.AllocsPerRun(200, func() { decode(enc) }); got != 0 {
		t.Errorf("DecodeReportInto of the host it holds: %v allocs, want 0", got)
	}
	i := 0
	if got := testing.AllocsPerRun(200, func() { i++; decode(encs[i%2]) }); got != 1 {
		t.Errorf("DecodeReportInto of another host on the same interface: %v allocs, want 1 (Host)", got)
	}
	// A host the names know, decoded over a record that held another,
	// is the table's string: no allocation at all.
	names := nameTable{"other.lab": "other.lab"}
	if got := testing.AllocsPerRun(200, func() {
		i++
		if err := DecodeReportInto(&s, encs[i%2], names); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("DecodeReportInto of a known host over another: %v allocs, want 0", got)
	}
	decode(enc)
	if !reflect.DeepEqual(&s, sampleStatus()) {
		t.Errorf("decoded %+v, want %+v", s, *sampleStatus())
	}
}
