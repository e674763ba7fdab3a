package status

import (
	"testing"
)

// The delta frames cross the same open network the proto datagrams
// do, so they get the same treatment: native fuzz targets asserting
// that arbitrary payloads never panic and that everything the parsers
// accept survives a re-encode/re-parse round trip.

func FuzzParseSnapMark(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendSnapMark(nil, 0))
	f.Add(AppendSnapMark(nil, 1))
	f.Add(AppendSnapMark(nil, 1<<40))
	f.Add([]byte{0x80}) // truncated uvarint
	f.Fuzz(func(t *testing.T, data []byte) {
		ver, err := ParseSnapMark(data)
		if err != nil {
			return
		}
		// The uvarint accepts non-canonical encodings, so compare
		// values, not bytes.
		again, err := ParseSnapMark(AppendSnapMark(nil, ver))
		if err != nil {
			t.Fatalf("re-parse of re-encoded snap mark failed: %v", err)
		}
		if again != ver {
			t.Fatalf("snap mark changed across round trip: %d vs %d", ver, again)
		}
	})
}

func FuzzParsePullRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendPullRequest(nil, 7))
	f.Add(AppendPullRequest(nil, 1<<50))
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		base, err := ParsePullRequest(data)
		if err != nil {
			return
		}
		again, err := ParsePullRequest(AppendPullRequest(nil, base))
		if err != nil {
			t.Fatalf("re-parse of re-encoded pull request failed: %v", err)
		}
		if again != base {
			t.Fatalf("pull base changed across round trip: %d vs %d", base, again)
		}
	})
}

// deltaRoundTrip is the property every delta parser owes whatever it
// accepts: re-encoded and re-parsed, the header and the shape survive.
// parse decodes into a fresh view, own turns a view's key into the
// encode side's.
func deltaRoundTrip[V, KV, K any](t *testing.T, what string, data []byte,
	parse func([]byte) (*Delta[V, KV], error), own func(KV) K, enc func([]byte, *Delta[V, K]) []byte) {
	v, err := parse(data)
	if err != nil {
		return
	}
	d := Delta[V, K]{BaseVer: v.BaseVer, NewVer: v.NewVer, Changed: v.Changed}
	for _, k := range v.Deleted {
		d.Deleted = append(d.Deleted, own(k))
	}
	for _, k := range v.Refreshed {
		d.Refreshed = append(d.Refreshed, own(k))
	}
	again, err := parse(enc(nil, &d))
	if err != nil {
		t.Fatalf("re-parse of re-encoded %s delta failed: %v", what, err)
	}
	if again.BaseVer != v.BaseVer || again.NewVer != v.NewVer {
		t.Fatalf("%s delta header changed across round trip: [%d,%d] vs [%d,%d]",
			what, v.BaseVer, v.NewVer, again.BaseVer, again.NewVer)
	}
	if len(again.Changed) != len(v.Changed) || len(again.Deleted) != len(v.Deleted) || len(again.Refreshed) != len(v.Refreshed) {
		t.Fatalf("%s delta shape changed across round trip", what)
	}
}

// FuzzParseSysDelta drives the one delta parser — the [base, new]
// header and the changed/deleted/refreshed lists behind it — with
// arbitrary bytes, as each of the three tables' payload.
func FuzzParseSysDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendSysDelta(nil, &SysDelta{BaseVer: 3, NewVer: 4}))
	f.Add(AppendSysDelta(nil, &SysDelta{
		BaseVer:   9,
		NewVer:    12,
		Changed:   []ServerStatus{{Host: "alpha", Load1: 0.5}, {Host: "beta", MemTotal: 64}},
		Deleted:   []string{"gone"},
		Refreshed: []string{"alpha"},
	}))
	f.Add([]byte{0x00, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge count
	f.Add(AppendNetDelta(nil, &NetDelta{
		BaseVer:   9,
		NewVer:    12,
		Changed:   []NetMetric{{From: "m1", To: "m2", Delay: 1500, Bandwidth: 9e7}},
		Deleted:   []NetKey{{From: "m1", To: "gone"}},
		Refreshed: []NetKey{{From: "m2", To: "m1"}},
	}))
	f.Add(AppendSecDelta(nil, &SecDelta{
		BaseVer:   9,
		NewVer:    12,
		Changed:   []SecLevel{{Host: "alpha", Level: -3}},
		Deleted:   []string{"gone"},
		Refreshed: []string{"beta"},
	}))
	ownHost := func(h []byte) string { return string(h) }
	ownPair := func(k NetKeyView) NetKey { return NetKey{From: string(k.From), To: string(k.To)} }
	f.Fuzz(func(t *testing.T, data []byte) {
		deltaRoundTrip(t, "sys", data, func(b []byte) (*Delta[ServerStatus, []byte], error) {
			var v SysDeltaView
			return (*Delta[ServerStatus, []byte])(&v), v.Parse(b)
		}, ownHost, AppendSysDelta)
		deltaRoundTrip(t, "net", data, func(b []byte) (*Delta[NetMetric, NetKeyView], error) {
			var v NetDeltaView
			return (*Delta[NetMetric, NetKeyView])(&v), v.Parse(b)
		}, ownPair, AppendNetDelta)
		deltaRoundTrip(t, "sec", data, func(b []byte) (*Delta[SecLevel, []byte], error) {
			var v SecDeltaView
			return (*Delta[SecLevel, []byte])(&v), v.Parse(b)
		}, ownHost, AppendSecDelta)
	})
}
