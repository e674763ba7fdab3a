package status

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// formatReport is the encoder AppendReport replaced, kept as its
// oracle: a strings.Builder fed by strconv.Format* and ReplaceAll.
func formatReport(s *ServerStatus) []byte {
	var b strings.Builder
	b.WriteString(reportVersion)
	str := func(v string) {
		b.WriteByte('|')
		b.WriteString(strings.ReplaceAll(strings.ReplaceAll(v, "%", "%25"), "|", "%7C"))
	}
	f := func(vs ...float64) {
		for _, v := range vs {
			b.WriteByte('|')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	str(s.Host)
	f(s.Load1, s.Load5, s.Load15, s.CPUUser, s.CPUNice, s.CPUSystem, s.CPUIdle, s.Bogomips)
	for _, v := range []uint64{s.MemTotal, s.MemUsed, s.MemFree} {
		b.WriteByte('|')
		b.WriteString(strconv.FormatUint(v, 10))
	}
	f(s.DiskAllReq, s.DiskRReq, s.DiskRBlocks, s.DiskWReq, s.DiskWBlocks)
	str(s.NetIface)
	f(s.NetRBytesPS, s.NetRPacketsPS, s.NetTBytesPS, s.NetTPacketsPS)
	return []byte(b.String())
}

func TestAppendReportMatchesTheFormattingEncoder(t *testing.T) {
	const golden = "SSR1|dalmatian.lab|0.42|0.31|0.18|0.12|0.01|0.05|0.82|4771.02|536870912|125829120|411041792|15|10|80|5|40|eth0|200000|150|100000|90"
	if got := string(EncodeReport(sampleStatus())); got != golden {
		t.Errorf("report of the sample status:\n got %s\nwant %s", got, golden)
	}
	odd := *sampleStatus()
	odd.Host, odd.NetIface = "we|rd%7Chost%", "|%|"
	odd.Load1, odd.Load5, odd.Load15 = math.NaN(), math.Inf(1), math.Inf(-1)
	odd.CPUIdle, odd.Bogomips, odd.MemTotal = 1e-320, -0.0, math.MaxUint64
	cases := []ServerStatus{{}, *sampleStatus(), odd}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		s := genStatus(rng)
		s.NetTBytesPS = math.Float64frombits(rng.Uint64())
		cases = append(cases, s)
	}
	for i := range cases {
		want := formatReport(&cases[i])
		if got := EncodeReport(&cases[i]); !bytes.Equal(got, want) {
			t.Fatalf("case %d:\n got %s\nwant %s", i, got, want)
		}
		// Appending keeps what the buffer already holds.
		if got := AppendReport([]byte("head"), &cases[i]); !bytes.Equal(got, append([]byte("head"), want...)) {
			t.Fatalf("case %d appended to a used buffer: %s", i, got)
		}
	}
}

var encoded []byte

func TestAppendReportReusedBufferAllocatesNothing(t *testing.T) {
	s := sampleStatus()
	buf := make([]byte, 0, 256)
	if got := testing.AllocsPerRun(200, func() { buf = AppendReport(buf[:0], s) }); got != 0 {
		t.Errorf("AppendReport into a reused buffer: %v allocs, want 0", got)
	}
	// A report past 200 bytes, as a fifth of a synthetic fleet's and
	// every report of /proc rates are, costs the same single copy. The
	// report escapes, as a sent one does.
	long := *s
	long.Host = "h00042.fleet"
	floats, _ := long.Fields()
	for _, f := range floats {
		*f = 3.0000000000000004 // 17 significant digits
	}
	for _, r := range []*ServerStatus{s, &long} {
		if got := testing.AllocsPerRun(200, func() { encoded = EncodeReport(r) }); got != 1 {
			t.Errorf("EncodeReport of a %d-byte report: %v allocs, want 1", len(EncodeReport(r)), got)
		}
	}
	if n := len(EncodeReport(&long)); n <= 200 {
		t.Fatalf("the long report is %d bytes, want over 200", n)
	}
}
