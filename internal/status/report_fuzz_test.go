package status

import (
	"bytes"
	"fmt"
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
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := splitReport(data)
		got, err := DecodeReport(data)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("DecodeReport(%q): error %v, the split decoder's %v", data, err, wantErr)
		}
		if err != nil {
			return
		}
		// NaN fields make DeepEqual useless; the canonical encoding of
		// both records says the same and keeps NaN comparable.
		enc := AppendReport(nil, got)
		if !bytes.Equal(enc, AppendReport(nil, want)) {
			t.Fatalf("DecodeReport(%q) = %+v, the split decoder says %+v", data, got, want)
		}
		var again ServerStatus
		if err := DecodeReportInto(&again, enc); err != nil {
			t.Fatalf("re-decode of %q failed: %v", enc, err)
		}
		if !bytes.Equal(AppendReport(nil, &again), enc) {
			t.Fatalf("report changed across round trip: %q vs %q", AppendReport(nil, &again), enc)
		}
	})
}

// A report decoded into a caller's record costs its two strings and
// nothing else; the monitor pays this once per datagram.
func TestDecodeReportIntoAllocatesOnlyTheStrings(t *testing.T) {
	enc := EncodeReport(sampleStatus())
	var s ServerStatus
	if got := testing.AllocsPerRun(200, func() {
		if err := DecodeReportInto(&s, enc); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("DecodeReportInto: %v allocs, want at most 2 (Host, NetIface)", got)
	}
	if !reflect.DeepEqual(&s, sampleStatus()) {
		t.Errorf("decoded %+v, want %+v", s, *sampleStatus())
	}
}
