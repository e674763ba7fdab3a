package status

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// BenchmarkReportCodec encodes and decodes probe reports of three value
// shapes:
//   - "4dp": every float rounded to four decimals, as the repo
//     benchmark's fleets report them;
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
		b.Run("encode/"+shape.name, func(b *testing.B) {
			buf := make([]byte, 0, 512)
			for i := 0; i < b.N; i++ {
				buf = AppendReport(buf[:0], &recs[i%len(recs)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nFloats), "ns/float")
			b.ReportMetric(shortShare, "short/float")
		})
		b.Run("decode/"+shape.name, func(b *testing.B) {
			var s ServerStatus
			for i := 0; i < b.N; i++ {
				if err := DecodeReportInto(&s, encs[i%len(encs)], nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nFloats), "ns/float")
			b.ReportMetric(shortShare, "short/float")
		})
	}
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
