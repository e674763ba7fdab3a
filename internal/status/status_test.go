package status

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleStatus() *ServerStatus {
	return &ServerStatus{
		Host:          "dalmatian.lab",
		Load1:         0.42,
		Load5:         0.31,
		Load15:        0.18,
		CPUUser:       0.12,
		CPUNice:       0.01,
		CPUSystem:     0.05,
		CPUIdle:       0.82,
		Bogomips:      4771.02,
		MemTotal:      512 * 1024 * 1024,
		MemUsed:       120 * 1024 * 1024,
		MemFree:       392 * 1024 * 1024,
		DiskAllReq:    15,
		DiskRReq:      10,
		DiskRBlocks:   80,
		DiskWReq:      5,
		DiskWBlocks:   40,
		NetIface:      "eth0",
		NetRBytesPS:   200000,
		NetRPacketsPS: 150,
		NetTBytesPS:   100000,
		NetTPacketsPS: 90,
	}
}

func TestReportRoundTrip(t *testing.T) {
	in := sampleStatus()
	enc := EncodeReport(in)
	out, err := DecodeReport(enc)
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestReportSizeUnderPaperBound(t *testing.T) {
	// §3.2.1: "The server status report message is less than 200 bytes
	// long" for typical values.
	enc := EncodeReport(sampleStatus())
	if len(enc) >= 250 {
		t.Errorf("report is %d bytes, want < 250", len(enc))
	}
}

func TestReportEscapesSeparator(t *testing.T) {
	in := sampleStatus()
	in.Host = "weird|host%name"
	out, err := DecodeReport(EncodeReport(in))
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if out.Host != in.Host {
		t.Errorf("host = %q, want %q", out.Host, in.Host)
	}
}

func TestDecodeReportRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"SSR1",
		"SSR9|a|1|2|3|4|5|6|7|8|9|10|11|12|13|14|15|16|e|18|19|20|21|22|23|24",
		"SSR1|host|notanumber|2|3|4|5|6|7|8|9|10|11|12|13|14|15|16|eth0|18|19|20|21",
		strings.Repeat("|", 40),
	}
	for _, c := range cases {
		if _, err := DecodeReport([]byte(c)); err == nil {
			t.Errorf("DecodeReport(%.40q) succeeded, want error", c)
		}
	}
}

func TestDecodeReportTruncatedFieldCount(t *testing.T) {
	enc := EncodeReport(sampleStatus())
	// Chop off the last field.
	cut := bytes.LastIndexByte(enc, '|')
	if _, err := DecodeReport(enc[:cut]); err == nil {
		t.Error("decoding truncated report succeeded, want error")
	}
}

func TestVarsCoverServerSideParameters(t *testing.T) {
	vars := sampleStatus().Vars()
	// Appendix B.1: the thesis exposes 22 server-side variables; this
	// implementation adds the *_bytes aliases.
	want := []string{
		"host_system_load1", "host_system_load5", "host_system_load15",
		"host_cpu_user", "host_cpu_nice", "host_cpu_system", "host_cpu_idle",
		"host_cpu_free", "host_cpu_bogomips",
		"host_memory_total", "host_memory_used", "host_memory_free",
		"host_disk_allreq", "host_disk_rreq", "host_disk_rblocks",
		"host_disk_wreq", "host_disk_wblocks",
		"host_network_rbytesps", "host_network_rpacketsps",
		"host_network_tbytesps", "host_network_tpacketsps",
	}
	for _, name := range want {
		if _, ok := vars[name]; !ok {
			t.Errorf("Vars() missing %q", name)
		}
	}
	if got := vars["host_memory_free"]; got != 392 {
		t.Errorf("host_memory_free = %v MB, want 392", got)
	}
	if got := vars["host_cpu_free"]; got != 0.82 {
		t.Errorf("host_cpu_free = %v, want 0.82", got)
	}
}

// TestVarAtReadsTheNamedField is the variable table's oracle: every
// variable, named, against the field it stands for, written out.
func TestVarAtReadsTheNamedField(t *testing.T) {
	s := ServerStatus{Load1: 1, Load5: 2, Load15: 3, CPUUser: 4, CPUNice: 5, CPUSystem: 6, CPUIdle: 7, Bogomips: 8,
		MemTotal: 9 << 20, MemUsed: 10<<20 + 1, MemFree: 11 << 20, DiskAllReq: 12, DiskRReq: 13, DiskRBlocks: 14,
		DiskWReq: 15, DiskWBlocks: 16, NetRBytesPS: 17, NetRPacketsPS: 18, NetTBytesPS: 19, NetTPacketsPS: 20}
	const mb = 1 << 20
	want := map[string]float64{
		"host_system_load1": s.Load1, "host_system_load5": s.Load5, "host_system_load15": s.Load15,
		"host_cpu_user": s.CPUUser, "host_cpu_nice": s.CPUNice, "host_cpu_system": s.CPUSystem,
		"host_cpu_idle": s.CPUIdle, "host_cpu_free": s.CPUFree(), "host_cpu_bogomips": s.Bogomips,
		"host_memory_total": float64(s.MemTotal) / mb, "host_memory_used": float64(s.MemUsed) / mb,
		"host_memory_free": float64(s.MemFree) / mb, "host_memory_total_bytes": float64(s.MemTotal),
		"host_memory_used_bytes": float64(s.MemUsed), "host_memory_free_bytes": float64(s.MemFree),
		"host_disk_allreq": s.DiskAllReq, "host_disk_rreq": s.DiskRReq, "host_disk_rblocks": s.DiskRBlocks,
		"host_disk_wreq": s.DiskWReq, "host_disk_wblocks": s.DiskWBlocks,
		"host_network_rbytesps": s.NetRBytesPS, "host_network_rpacketsps": s.NetRPacketsPS,
		"host_network_tbytesps": s.NetTBytesPS, "host_network_tpacketsps": s.NetTPacketsPS,
	}
	got := s.Vars()
	if len(got) != len(want) {
		t.Errorf("%d variables, want %d", len(got), len(want))
	}
	for name, w := range want {
		if v, ok := s.Var(name); !ok || v != w || got[name] != w {
			t.Errorf("%s = %v (defined %t), Vars %v; want %v", name, v, ok, got[name], w)
		}
	}
	if v, ok := s.Var("host_nonexistent"); ok || v != 0 {
		t.Errorf("an unknown variable reads %v, defined %t", v, ok)
	}
}

// genStatus builds a pseudo-random but encodable status record.
func genStatus(r *rand.Rand) ServerStatus {
	f := func() float64 { return math.Trunc(r.Float64()*1e6) / 100 }
	return ServerStatus{
		Host:  "h" + string(rune('a'+r.Intn(26))),
		Load1: f(), Load5: f(), Load15: f(),
		CPUUser: f(), CPUNice: f(), CPUSystem: f(), CPUIdle: f(),
		Bogomips: f(),
		MemTotal: r.Uint64() % (1 << 40), MemUsed: r.Uint64() % (1 << 40), MemFree: r.Uint64() % (1 << 40),
		DiskAllReq: f(), DiskRReq: f(), DiskRBlocks: f(), DiskWReq: f(), DiskWBlocks: f(),
		NetIface:    "eth0",
		NetRBytesPS: f(), NetRPacketsPS: f(), NetTBytesPS: f(), NetTPacketsPS: f(),
	}
}

func TestPropertyReportRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := genStatus(r)
		out, err := DecodeReport(EncodeReport(&in))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(&in, out)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertySystemBatchRoundTrip(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw % 20)
		in := make([]ServerStatus, n)
		for i := range in {
			in[i] = genStatus(r)
		}
		out, err := UnmarshalSystemBatch(MarshalSystemBatch(in), nil)
		if err != nil {
			return false
		}
		if len(in) == 0 {
			return len(out) == 0
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNetBatchRoundTrip(t *testing.T) {
	in := []NetMetric{
		{From: "netmon-1", To: "netmon-2", Delay: 5 * time.Millisecond, Bandwidth: 95e6},
		{From: "netmon-1", To: "netmon-3", Delay: 126 * time.Millisecond, Bandwidth: 1.2e6},
	}
	out, err := UnmarshalNetBatch(MarshalNetBatch(in))
	if err != nil {
		t.Fatalf("UnmarshalNetBatch: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestSecBatchRoundTrip(t *testing.T) {
	in := []SecLevel{
		{Host: "sagit", Level: 5},
		{Host: "hacker.some.net", Level: -1},
	}
	out, err := UnmarshalSecBatch(MarshalSecBatch(in))
	if err != nil {
		t.Fatalf("UnmarshalSecBatch: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{Type: TypeSystem, Data: MarshalSystemBatch([]ServerStatus{*sampleStatus()})},
		{Type: TypeNetwork, Data: MarshalNetBatch(nil)},
		{Type: TypeRequest, Data: nil},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame #%d: %v", i, err)
		}
		if got.Type != want.Type {
			t.Errorf("frame %d type = %v, want %v", i, got.Type, want.Type)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Errorf("frame %d data mismatch", i)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("ReadFrame on empty stream = %v, want io.EOF", err)
	}
}

// Frames lined up in one buffer by AppendFrame are, byte for byte, what
// WriteFrame puts on the wire one at a time — the empty payload and the
// used buffer included — and a reused buffer costs nothing.
func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	d := SysDelta{BaseVer: 3, NewVer: 9, Changed: []ServerStatus{*sampleStatus()}, Deleted: []string{"gone"}}
	var want bytes.Buffer
	want.WriteString("head")
	for _, f := range []Frame{
		{Type: TypeSysDelta, Data: AppendSysDelta(nil, &d)},
		{Type: TypeRequest, Data: AppendPullRequest(nil, 0)},
		{Type: TypeSnapMark, Data: AppendSnapMark(nil, 9)},
	} {
		if err := WriteFrame(&want, f); err != nil {
			t.Fatal(err)
		}
	}
	line := func(dst []byte) []byte {
		var err error
		if dst, err = AppendFrame(dst, TypeSysDelta, AppendSysDelta, &d); err != nil {
			t.Fatal(err)
		}
		if dst, err = AppendFrame(dst, TypeRequest, AppendPullRequest, 0); err != nil {
			t.Fatal(err)
		}
		if dst, err = AppendFrame(dst, TypeSnapMark, AppendSnapMark, 9); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	got := line([]byte("head"))
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("AppendFrame lined up\n %x\nWriteFrame wrote\n %x", got, want.Bytes())
	}
	if n := testing.AllocsPerRun(100, func() { got = line(got[:0]) }); n != 0 {
		t.Errorf("AppendFrame into a reused buffer: %v allocs, want 0", n)
	}
	big := func(dst []byte, n int) []byte { return append(dst, make([]byte, n)...) }
	if out, err := AppendFrame([]byte("head"), TypeSystem, big, MaxFrameSize+1); err == nil || string(out) != "head" {
		t.Errorf("oversize frame: err %v, buffer left at %d bytes; want an error and the buffer as it was", err, len(out))
	}
}

// A header that announces more than MaxFrameSize is refused on the
// announcement alone. "Some error" is not enough to pin that: with the
// limit check gone the same header still fails — as a torn payload,
// after a buffer of the announced size was allocated for it.
func TestReadFrameRejectsOversize(t *testing.T) {
	for _, size := range []uint32{MaxFrameSize + 1, 2 * MaxFrameSize} {
		hdr := binary.BigEndian.AppendUint32([]byte{byte(TypeSystem)}, size)
		kept := make([]byte, 0, 64)
		_, buf, err := ReadFrameInto(bytes.NewReader(hdr), kept)
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("header announcing %d bytes: err = %v, want the frame-size limit error", size, err)
		}
		if cap(buf) != cap(kept) {
			t.Errorf("header announcing %d bytes: payload buffer grew from %d to %d before the frame was refused", size, cap(kept), cap(buf))
		}
	}
	// The limit itself is a legal size: that header passes the check and
	// fails on the payload it promised.
	hdr := binary.BigEndian.AppendUint32([]byte{byte(TypeSystem)}, MaxFrameSize)
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("header announcing exactly MaxFrameSize: err = %v, want a torn payload", err)
	}
}

func TestUnmarshalBatchRejectsTruncation(t *testing.T) {
	full := MarshalSystemBatch([]ServerStatus{*sampleStatus(), *sampleStatus()})
	for _, cut := range []int{0, 3, 5, len(full) / 2, len(full) - 1} {
		if _, err := UnmarshalSystemBatch(full[:cut], nil); err == nil {
			t.Errorf("UnmarshalSystemBatch accepted truncation at %d bytes", cut)
		}
	}
	if _, err := UnmarshalSystemBatch(append(append([]byte{}, full...), 0x00), nil); err == nil {
		t.Error("UnmarshalSystemBatch accepted trailing bytes")
	}
}

func TestRecordTypeString(t *testing.T) {
	if TypeSystem.String() != "system" || TypeRequest.String() != "request" {
		t.Error("RecordType.String misbehaves for known types")
	}
	if s := RecordType(99).String(); !strings.Contains(s, "99") {
		t.Errorf("RecordType(99).String() = %q", s)
	}
}
