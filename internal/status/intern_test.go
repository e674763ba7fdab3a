package status

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// nameTable is a Names over a map, as a store's table is one: it hands
// out the string it holds, never a view of the bytes it is asked about.
type nameTable map[string]string

func (m nameTable) Name(b []byte) (string, bool) {
	s, ok := m[string(b)]
	return s, ok
}

// sameString reports whether a and b are one string in memory, not two
// equal ones.
func sameString(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// TestDecodeInterning decodes a report, a sys batch and a sys delta
// with and without a Names, over four names: a host the table knows, one
// it does not, one the report escapes and the interface name, which is
// not looked up. Every field must equal the decode without the lookup;
// the known host must be the table's own string; and every decoded
// string must survive the source buffer being overwritten.
func TestDecodeInterning(t *testing.T) {
	known := strings.Clone("known.lab")
	escaped := strings.Clone("odd%name|7")
	names := nameTable{known: known, escaped: escaped}
	recs := make([]ServerStatus, 0, 3)
	for _, host := range []string{"known.lab", "unknown.lab", "odd%name|7"} {
		s := *sampleStatus()
		s.Host, s.NetIface = host, "known.lab"
		recs = append(recs, s)
	}
	type decoded struct {
		recs []ServerStatus
		err  error
	}
	for _, tc := range []struct {
		name   string
		encode func() []byte
		decode func(b []byte, names Names) decoded
		// interned: which records' hosts the lookup must hand out
		interned []bool
	}{
		{"report", func() []byte { return EncodeReport(&recs[0]) }, func(b []byte, names Names) decoded {
			var s ServerStatus
			err := DecodeReportInto(&s, b, names)
			return decoded{[]ServerStatus{s}, err}
		}, []bool{true}},
		{"report/unknown", func() []byte { return EncodeReport(&recs[1]) }, func(b []byte, names Names) decoded {
			var s ServerStatus
			err := DecodeReportInto(&s, b, names)
			return decoded{[]ServerStatus{s}, err}
		}, []bool{false}},
		{"report/escaped", func() []byte { return EncodeReport(&recs[2]) }, func(b []byte, names Names) decoded {
			var s ServerStatus
			err := DecodeReportInto(&s, b, names)
			return decoded{[]ServerStatus{s}, err}
		}, []bool{false}}, // unescaping makes a new string before any lookup
		{"batch", func() []byte { return AppendSystemBatch(nil, recs) }, func(b []byte, names Names) decoded {
			out, err := UnmarshalSystemBatch(b, names)
			return decoded{out, err}
		}, []bool{true, false, true}},
		{"delta", func() []byte {
			return AppendSysDelta(nil, &SysDelta{BaseVer: 3, NewVer: 9, Changed: recs, Deleted: []string{"gone.lab"}})
		}, func(b []byte, names Names) decoded {
			var v SysDeltaView
			err := v.ParseWith(b, names)
			return decoded{v.Changed, err}
		}, []bool{true, false, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain := tc.decode(tc.encode(), nil)
			src := tc.encode()
			got := tc.decode(src, names)
			if plain.err != nil || got.err != nil {
				t.Fatalf("decode: %v / %v", plain.err, got.err)
			}
			if !reflect.DeepEqual(got.recs, plain.recs) {
				t.Fatalf("decoded through the lookup %+v, without it %+v", got.recs, plain.recs)
			}
			for i, s := range got.recs {
				if want := tc.interned[i]; sameString(s.Host, names[s.Host]) != want {
					t.Errorf("record %d host %q interned %t, want %t", i, s.Host, !want, want)
				}
				if sameString(s.NetIface, known) {
					t.Errorf("record %d: the interface name was looked up as a host", i)
				}
			}
			for i := range src {
				src[i] = 'X'
			}
			if !reflect.DeepEqual(got.recs, plain.recs) {
				t.Errorf("overwriting the source changed the decode: %+v, want %+v", got.recs, plain.recs)
			}
		})
	}
}
