package status

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// BenchmarkReportCodec encodes and decodes probe reports of four value
// shapes:
//   - "4dp": every float rounded to four decimals below 5 000;
//   - "fleet": the repo benchmark's fleets (benchmark/fleet.go's jitter
//     and bigFleet): loads, CPU fractions, disk and packet rates to four
//     decimals, byte rates of 700 per packet (past 1e6, so printed with
//     an exponent, in most reports) and 128 MB–1 GB of memory;
//   - "proc": every float a rate, a counter delta over a measured scan
//     interval (sysinfo's fillRates), so 16 or 17 significant digits:
//     the fallback row;
//   - "procsrc": a busy host as sysinfo.ProcSource reports it over a 5 s
//     scan — /proc/loadavg's and /proc/cpuinfo's two-decimal figures, no
//     nice time, CPU fractions of jiffy counts and every disk and net
//     counter moving.
//
// Every report has its own host name and the same interface. ns/float is
// a report's time over its 17 float fields; short/float is the share of
// those fields that are short decimals, the ones the exact paths take.
// strconv-ns/float times the same reports' numbers through strconv
// alone (strconvEncode, strconvDecode), a pass over the reports at a
// time right after the codec's, the baseline scripts/bench.sh holds the
// codec's rows to.
func BenchmarkReportCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	all := func(val func() float64) func(*ServerStatus) {
		return func(s *ServerStatus) {
			floats, _ := s.Fields()
			for _, f := range floats {
				*f = val()
			}
		}
	}
	shapes := []struct {
		name string
		fill func(*ServerStatus)
	}{
		{"4dp", all(func() float64 { return math.Round(rng.Float64()*5000*1e4) / 1e4 })},
		{"fleet", func(s *ServerStatus) {
			// benchmark/fleet.go's constants: normalLoadMax 4.5, the
			// bogomipsClasses of Table 5.1, disk requests under 200 and
			// 100 a second of 8 blocks each, packets under 5 000 a second
			// of 700 bytes each.
			round4 := func(v float64) float64 { return math.Round(v*1e4) / 1e4 }
			s.Load1, s.Load5, s.Load15 = round4(rng.Float64()*4.5), round4(rng.Float64()*4.5), round4(rng.Float64()*4.5)
			s.CPUIdle = round4(rng.Float64())
			busy := 1 - s.CPUIdle
			s.CPUUser, s.CPUSystem, s.CPUNice = round4(busy*0.7), round4(busy*0.25), round4(busy*0.05)
			s.Bogomips = []float64{1730.15, 3185.04, 3394.76, 3591.37, 4771.02}[rng.Intn(5)]
			s.MemTotal = uint64(128<<rng.Intn(4)) << 20
			s.MemFree = uint64(float64(s.MemTotal) * (0.3 + 0.6*rng.Float64()))
			s.MemUsed = s.MemTotal - s.MemFree
			s.DiskRReq, s.DiskWReq = round4(rng.Float64()*200), round4(rng.Float64()*100)
			s.DiskAllReq = round4(s.DiskRReq + s.DiskWReq)
			s.DiskRBlocks, s.DiskWBlocks = round4(s.DiskRReq*8), round4(s.DiskWReq*8)
			s.NetRPacketsPS, s.NetTPacketsPS = round4(rng.Float64()*5000), round4(rng.Float64()*5000)
			s.NetRBytesPS, s.NetTBytesPS = round4(s.NetRPacketsPS*700), round4(s.NetTPacketsPS*700)
		}},
		{"proc", all(func() float64 { return float64(rng.Int63n(1<<24)) / 5.000123 })},
		{"procsrc", func(s *ServerStatus) {
			dt := 5 + float64(rng.Intn(5000))*1e-6 // the measured interval
			rate := func() float64 { return float64(1+rng.Int63n(1<<20)) / dt }
			s.Load1, s.Load5, s.Load15 = float64(rng.Intn(400))/100, float64(rng.Intn(400))/100, float64(rng.Intn(400))/100
			// 2 CPUs × 100 Hz × 5 s, give or take the ticks the scan straddles.
			du, ds, total := rng.Intn(600), rng.Intn(200), 997+rng.Intn(7)
			s.CPUUser, s.CPUNice, s.CPUSystem = float64(du)/float64(total), 0, float64(ds)/float64(total)
			s.CPUIdle = float64(total-du-ds) / float64(total)
			s.Bogomips = 4771.2
			s.DiskRReq, s.DiskRBlocks, s.DiskWReq, s.DiskWBlocks = rate(), rate(), rate(), rate()
			s.DiskAllReq = s.DiskRReq + s.DiskWReq
			s.NetRBytesPS, s.NetRPacketsPS, s.NetTBytesPS, s.NetTPacketsPS = rate(), rate(), rate(), rate()
		}},
	}
	const nFloats = 17
	for _, shape := range shapes {
		recs := make([]ServerStatus, 256)
		encs := make([][]byte, len(recs))
		short := 0
		for i := range recs {
			recs[i] = ServerStatus{Host: fmt.Sprintf("h%05d.fleet", i), NetIface: "eth0", MemTotal: 1 << 30, MemUsed: 3 << 28, MemFree: 1 << 28}
			shape.fill(&recs[i])
			floats, _ := recs[i].Fields()
			for _, f := range floats {
				if shortDecimal(*f) {
					short++
				}
			}
			encs[i] = EncodeReport(&recs[i])
		}
		shortShare := float64(short) / float64(len(recs)*nFloats)
		// run times ours on b.N reports by the benchmark's timer, and
		// strconv on each pass over the reports right after ours with the
		// timer stopped, so both see the host at the same speed.
		run := func(b *testing.B, ours, theirs func(i int)) {
			var base time.Duration
			for i := 0; i < b.N; i++ {
				ours(i % len(recs))
				if i%len(recs) == len(recs)-1 || i == b.N-1 {
					b.StopTimer()
					t0 := time.Now()
					for j := i - i%len(recs); j <= i; j++ {
						theirs(j % len(recs))
					}
					base += time.Since(t0)
					b.StartTimer()
				}
			}
			floats := float64(b.N * nFloats)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/floats, "ns/float")
			b.ReportMetric(float64(base.Nanoseconds())/floats, "strconv-ns/float")
			b.ReportMetric(shortShare, "short/float")
		}
		b.Run("encode/"+shape.name, func(b *testing.B) {
			buf := make([]byte, 0, 512)
			run(b, func(i int) { buf = AppendReport(buf[:0], &recs[i]) },
				func(i int) { buf = strconvEncode(buf[:0], &recs[i]) })
		})
		b.Run("decode/"+shape.name, func(b *testing.B) {
			var s ServerStatus
			decode := func(dec func(*ServerStatus, []byte) error) func(int) {
				return func(i int) {
					if err := dec(&s, encs[i]); err != nil {
						b.Fatal(err)
					}
				}
			}
			run(b, decode(func(s *ServerStatus, enc []byte) error { return DecodeReportInto(s, enc, nil) }),
				decode(strconvDecode))
		})
	}
}

// strconvEncode writes a report's fields in wire order through
// strconv.AppendFloat and AppendUint, its names unescaped.
func strconvEncode(dst []byte, s *ServerStatus) []byte {
	floats, mems := s.Fields()
	dst = append(append(append(dst, reportVersion...), '|'), s.Host...)
	for i, f := range floats {
		switch i {
		case 8:
			for _, u := range mems {
				dst = strconv.AppendUint(append(dst, '|'), *u, 10)
			}
		case 13:
			dst = append(append(dst, '|'), s.NetIface...)
		}
		dst = strconv.AppendFloat(append(dst, '|'), *f, 'g', -1, 64)
	}
	return dst
}

// strconvDecode reads a report's numbers through bytes.IndexByte and
// strconv.ParseFloat and ParseUint, its names skipped.
func strconvDecode(dst *ServerStatus, data []byte) error {
	floats, mems := dst.Fields()
	next := func() []byte {
		v := data
		if j := bytes.IndexByte(data, '|'); j >= 0 {
			v, data = data[:j], data[j+1:]
		}
		return v
	}
	next() // version
	next() // host
	var err error
	for i, f := range floats {
		switch i {
		case 8:
			for _, u := range mems {
				if *u, err = strconv.ParseUint(string(next()), 10, 64); err != nil {
					return err
				}
			}
		case 13:
			next() // interface
		}
		if *f, err = strconv.ParseFloat(string(next()), 64); err != nil {
			return err
		}
	}
	return nil
}

// shortDecimal reports whether strconv writes v as +0 or as a decimal
// of at most 15 significant digits with 1e-5 ≤ |v| < 1e15: the values
// appendReportFloat lays out without strconv.
func shortDecimal(v float64) bool {
	if v == 0 {
		return !math.Signbit(v)
	}
	a := math.Abs(v)
	if !(a >= 1e-5 && a < 1e15) {
		return false
	}
	s := strconv.FormatFloat(a, 'e', -1, 64) // d[.ddd]e±XX
	return len(strings.Replace(s[:strings.IndexByte(s, 'e')], ".", "", 1)) <= 15
}
