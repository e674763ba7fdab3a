package proto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzDecodeRequest feeds arbitrary datagrams to UnmarshalRequest and
// checks that anything it accepts survives a marshal/unmarshal round
// trip unchanged.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{msgRequest})
	f.Add(MarshalRequest(&Request{Seq: 1, ServerNum: 3, Detail: "host_cpu_free >= 0.9"}))
	f.Add(MarshalRequest(&Request{Seq: 0xffffffff, ServerNum: 60, Option: OptPartialOK | OptTemplate, Detail: ""}))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := UnmarshalRequest(data)
		if err != nil {
			return
		}
		out := MarshalRequest(req)
		if !bytes.Equal(out, data) {
			t.Fatalf("request does not round-trip:\n in: %x\nout: %x", data, out)
		}
		again, err := UnmarshalRequest(out)
		if err != nil {
			t.Fatalf("re-decode of marshalled request failed: %v", err)
		}
		if *again != *req {
			t.Fatalf("request changed across round trip: %+v vs %+v", req, again)
		}
	})
}

// splitReply is the reply decoder ParseReply replaced, kept as its
// oracle: the error text converted first, the names cut by
// strings.Split.
func splitReply(b []byte) (*Reply, error) {
	if len(b) < 9 {
		return nil, fmt.Errorf("proto: reply datagram too short (%d bytes)", len(b))
	}
	if b[0] != msgReply {
		return nil, fmt.Errorf("proto: not a reply datagram (tag 0x%02x)", b[0])
	}
	r := &Reply{Seq: binary.BigEndian.Uint32(b[1:])}
	n := int(binary.BigEndian.Uint16(b[5:]))
	if n > MaxServers {
		return nil, fmt.Errorf("proto: reply claims %d servers, limit is %d", n, MaxServers)
	}
	errLen := int(binary.BigEndian.Uint16(b[7:]))
	b = b[9:]
	if len(b) < errLen {
		return nil, fmt.Errorf("proto: truncated reply error text")
	}
	r.Err = string(b[:errLen])
	if strings.ContainsAny(r.Err, "\n") {
		return nil, fmt.Errorf("proto: error text contains newline")
	}
	b = b[errLen:]
	if n == 0 {
		if len(b) != 0 {
			return nil, fmt.Errorf("proto: trailing bytes in empty reply")
		}
		return r, nil
	}
	r.Servers = strings.Split(string(b), "\n")
	if len(r.Servers) != n {
		return nil, fmt.Errorf("proto: reply claims %d servers, carries %d", n, len(r.Servers))
	}
	return r, nil
}

// rawReply builds a reply datagram from its header fields and tail
// bytes as given, consistent or not.
func rawReply(seq uint32, n int, errText, tail string) []byte {
	b := []byte{msgReply}
	b = binary.BigEndian.AppendUint32(b, seq)
	b = binary.BigEndian.AppendUint16(b, uint16(n))
	b = binary.BigEndian.AppendUint16(b, uint16(len(errText)))
	return append(append(b, errText...), tail...)
}

// FuzzDecodeReply holds ParseReply to splitReply on every input — the
// same accept or refuse, error text, Seq, Err and server names — and
// checks that any reply it accepts can be re-marshalled and decoded
// back to the same value.
func FuzzDecodeReply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{msgReply})
	if b, err := MarshalReply(&Reply{Seq: 7, Servers: []string{"a:1", "b:2"}}); err == nil {
		f.Add(b)
	}
	if b, err := MarshalReply(&Reply{Seq: 9, Err: "no qualified server"}); err == nil {
		f.Add(b)
	}
	f.Add(rawReply(1, 2, "", "\n"))
	f.Add(rawReply(2, 3, "", "a\n\nb"))
	f.Add(rawReply(3, 1, "", ""))
	f.Add(rawReply(4, 0, "", "trailing"))
	f.Add(rawReply(5, MaxServers, "", strings.Repeat("h:1\n", MaxServers-1)+"h:1"))
	f.Add(rawReply(6, 2, "partial", "a:1\nb:2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Reply
		err := ParseReply(data, &got)
		want, wantErr := splitReply(data)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("ParseReply error %v, the split decoder's %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if got.Seq != want.Seq || got.Err != want.Err || !slices.Equal(got.Servers, want.Servers) {
			t.Fatalf("ParseReply %+v, the split decoder %+v", got, *want)
		}
		out, err := MarshalReply(&got)
		if err != nil {
			t.Fatalf("decoded reply %+v cannot be re-marshalled: %v", got, err)
		}
		again, err := UnmarshalReply(out)
		if err != nil {
			t.Fatalf("re-decode of marshalled reply failed: %v", err)
		}
		if again.Seq != got.Seq || again.Err != got.Err || !slices.Equal(again.Servers, got.Servers) {
			t.Fatalf("reply changed across round trip: %+v vs %+v", got, *again)
		}
	})
}
