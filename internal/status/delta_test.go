package status

import (
	"reflect"
	"testing"
	"time"
)

func deltaSampleStatus(host string) ServerStatus {
	return ServerStatus{
		Host: host, Load1: 0.5, Load5: 0.4, Load15: 0.3,
		CPUUser: 0.1, CPUNice: 0.0, CPUSystem: 0.05, CPUIdle: 0.85,
		Bogomips: 5000, MemTotal: 8 << 30, MemUsed: 2 << 30, MemFree: 6 << 30,
		DiskAllReq: 10, DiskRReq: 4, DiskRBlocks: 80, DiskWReq: 6, DiskWBlocks: 120,
		NetIface: "eth0", NetRBytesPS: 1e6, NetRPacketsPS: 900, NetTBytesPS: 2e6, NetTPacketsPS: 1100,
	}
}

func TestSysDeltaRoundTrip(t *testing.T) {
	d := &SysDelta{
		BaseVer:   10,
		NewVer:    17,
		Changed:   []ServerStatus{deltaSampleStatus("a"), deltaSampleStatus("b|weird")},
		Deleted:   []string{"gone"},
		Refreshed: []string{"idle1", "idle2"},
	}
	buf := AppendSysDelta(nil, d)
	var v SysDeltaView
	if err := v.Parse(buf); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v.BaseVer != 10 || v.NewVer != 17 {
		t.Fatalf("versions = %d/%d", v.BaseVer, v.NewVer)
	}
	if len(v.Changed) != 2 || v.Changed[0] != d.Changed[0] || v.Changed[1] != d.Changed[1] {
		t.Fatalf("changed mismatch: %+v", v.Changed)
	}
	if len(v.Deleted) != 1 || string(v.Deleted[0]) != "gone" {
		t.Fatalf("deleted mismatch: %q", v.Deleted)
	}
	if len(v.Refreshed) != 2 || string(v.Refreshed[0]) != "idle1" || string(v.Refreshed[1]) != "idle2" {
		t.Fatalf("refreshed mismatch: %q", v.Refreshed)
	}

	// Parsing a second frame into the same view must reuse it cleanly.
	d2 := &SysDelta{BaseVer: 17, NewVer: 18, Refreshed: []string{"only"}}
	if err := v.Parse(AppendSysDelta(buf[:0], d2)); err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(v.Changed) != 0 || len(v.Deleted) != 0 || len(v.Refreshed) != 1 {
		t.Fatalf("view not reset on reuse: %d/%d/%d", len(v.Changed), len(v.Deleted), len(v.Refreshed))
	}
}

func TestNetDeltaRoundTrip(t *testing.T) {
	d := &NetDelta{
		BaseVer: 3, NewVer: 4,
		Changed:   []NetMetric{{From: "a", To: "b", Delay: 1500 * time.Microsecond, Bandwidth: 9e7}},
		Deleted:   []NetKey{{From: "x", To: "y"}},
		Refreshed: []NetKey{{From: "a", To: "c"}},
	}
	var v NetDeltaView
	if err := v.Parse(AppendNetDelta(nil, d)); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(v.Changed) != 1 || v.Changed[0] != d.Changed[0] {
		t.Fatalf("changed mismatch: %+v", v.Changed)
	}
	if string(v.Deleted[0].From) != "x" || string(v.Deleted[0].To) != "y" {
		t.Fatalf("deleted mismatch: %+v", v.Deleted)
	}
	if string(v.Refreshed[0].From) != "a" || string(v.Refreshed[0].To) != "c" {
		t.Fatalf("refreshed mismatch: %+v", v.Refreshed)
	}
}

func TestSecDeltaRoundTrip(t *testing.T) {
	d := &SecDelta{
		BaseVer: 1, NewVer: 2,
		Changed:   []SecLevel{{Host: "a", Level: -3}, {Host: "b", Level: 9}},
		Deleted:   []string{"dead"},
		Refreshed: []string{"same"},
	}
	var v SecDeltaView
	if err := v.Parse(AppendSecDelta(nil, d)); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(v.Changed) != 2 || v.Changed[0] != d.Changed[0] || v.Changed[1] != d.Changed[1] {
		t.Fatalf("changed mismatch: %+v", v.Changed)
	}
	if string(v.Deleted[0]) != "dead" || string(v.Refreshed[0]) != "same" {
		t.Fatalf("keys mismatch: %q %q", v.Deleted, v.Refreshed)
	}
}

// A delta parsed into a view that holds an earlier, different delta
// reads exactly as it does parsed into a fresh view: a changed record
// is decoded over its slot's previous one, so every field must be
// written. The later deltas carry all three lists, so that no slice is
// nil on one side only.
func TestDeltaParseOverAnEarlierDeltaEqualsAFreshParse(t *testing.T) {
	full := func(host, iface string, x float64) ServerStatus {
		s := ServerStatus{Host: host, NetIface: iface}
		floats, mems := s.Fields()
		for i, f := range floats {
			*f = x + float64(i)
		}
		for i, u := range mems {
			*u = uint64(x) + uint64(i) + 1
		}
		return s
	}
	reparse(t, "sys", (*SysDeltaView).Parse,
		AppendSysDelta(nil, &SysDelta{BaseVer: 1, NewVer: 2,
			Changed: []ServerStatus{full("a", "eth0", 7), full("b", "eth1", 8), full("c", "eth2", 9)}, Deleted: []string{"x"}}),
		AppendSysDelta(nil, &SysDelta{BaseVer: 2, NewVer: 3,
			Changed: []ServerStatus{{Host: "a"}, full("z", "eth1", 0.5)}, Deleted: []string{"b"}, Refreshed: []string{"y"}}))
	reparse(t, "net", (*NetDeltaView).Parse,
		AppendNetDelta(nil, &NetDelta{BaseVer: 1, NewVer: 2,
			Changed: []NetMetric{{From: "a", To: "b", Delay: 5, Bandwidth: 9e7}, {From: "b", To: "a", Delay: 6, Bandwidth: 8e7}}}),
		AppendNetDelta(nil, &NetDelta{BaseVer: 2, NewVer: 3,
			Changed: []NetMetric{{From: "a", To: "b"}}, Deleted: []NetKey{{From: "b", To: "a"}}, Refreshed: []NetKey{{From: "c", To: "d"}}}))
	reparse(t, "sec", (*SecDeltaView).Parse,
		AppendSecDelta(nil, &SecDelta{BaseVer: 1, NewVer: 2, Changed: []SecLevel{{Host: "a", Level: 4}, {Host: "b", Level: -2}}}),
		AppendSecDelta(nil, &SecDelta{BaseVer: 2, NewVer: 3,
			Changed: []SecLevel{{Host: "a"}}, Deleted: []string{"b"}, Refreshed: []string{"c"}}))
}

func reparse[V any](t *testing.T, what string, parse func(*V, []byte) error, earlier, later []byte) {
	t.Helper()
	var reused, fresh V
	for _, p := range []struct {
		v *V
		b []byte
	}{{&reused, earlier}, {&reused, later}, {&fresh, later}} {
		if err := parse(p.v, p.b); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	if !reflect.DeepEqual(reused, fresh) {
		t.Errorf("%s delta parsed over an earlier one:\n%+v\nparsed into a fresh view:\n%+v", what, reused, fresh)
	}
}

func TestDeltaParseRejectsTruncation(t *testing.T) {
	d := &SysDelta{BaseVer: 1, NewVer: 2, Changed: []ServerStatus{deltaSampleStatus("a")}, Deleted: []string{"x"}}
	buf := AppendSysDelta(nil, d)
	var v SysDeltaView
	for cut := 1; cut < len(buf); cut++ {
		if err := v.Parse(buf[:cut]); err == nil {
			t.Fatalf("Parse accepted truncation at %d/%d bytes", cut, len(buf))
		}
	}
	if err := v.Parse(append(AppendSysDelta(nil, d), 0)); err == nil {
		t.Fatalf("Parse accepted trailing byte")
	}
}

func TestDeltaParseRejectsImplausibleCounts(t *testing.T) {
	// Header claiming 2^40 changed records in a tiny buffer.
	b := appendUvarint(nil, 1)
	b = appendUvarint(b, 2)
	b = appendUvarint(b, 1<<40)
	var v SysDeltaView
	if err := v.Parse(b); err == nil {
		t.Fatalf("Parse accepted implausible count")
	}
}

func TestSnapMarkRoundTrip(t *testing.T) {
	for _, ver := range []uint64{0, 1, 1 << 62} {
		got, err := ParseSnapMark(AppendSnapMark(nil, ver))
		if err != nil || got != ver {
			t.Fatalf("snap mark %d round-trip = (%d, %v)", ver, got, err)
		}
	}
	if _, err := ParseSnapMark(nil); err == nil {
		t.Fatalf("ParseSnapMark accepted empty payload")
	}
	if _, err := ParseSnapMark([]byte{1, 99}); err == nil {
		t.Fatalf("ParseSnapMark accepted trailing bytes")
	}
}

func TestPullRequestRoundTrip(t *testing.T) {
	// Base 0 is the thesis-compatible empty request.
	if b := AppendPullRequest(nil, 0); len(b) != 0 {
		t.Fatalf("base 0 encoded as %d bytes, want empty", len(b))
	}
	got, err := ParsePullRequest(nil)
	if err != nil || got != 0 {
		t.Fatalf("empty request = (%d, %v), want (0, nil)", got, err)
	}
	got, err = ParsePullRequest(AppendPullRequest(nil, 4242))
	if err != nil || got != 4242 {
		t.Fatalf("versioned request = (%d, %v)", got, err)
	}
	if _, err := ParsePullRequest([]byte{1, 2, 3}); err == nil {
		t.Fatalf("ParsePullRequest accepted trailing bytes")
	}
}
