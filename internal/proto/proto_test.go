package proto

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRequestRoundTrip(t *testing.T) {
	in := &Request{
		Seq:       0xDEADBEEF,
		ServerNum: 4,
		Option:    OptPartialOK | OptRankByExpr,
		Detail:    "host_cpu_free > 0.9\nhost_memory_free > 5\n",
	}
	out, err := UnmarshalRequest(MarshalRequest(in))
	if err != nil {
		t.Fatalf("UnmarshalRequest: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestRequestEmptyDetail(t *testing.T) {
	in := &Request{Seq: 1, ServerNum: 2}
	out, err := UnmarshalRequest(MarshalRequest(in))
	if err != nil {
		t.Fatalf("UnmarshalRequest: %v", err)
	}
	if out.Detail != "" {
		t.Errorf("Detail = %q, want empty", out.Detail)
	}
}

func TestUnmarshalRequestRejectsBadInput(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},
		{msgReply, 0, 0, 0, 1, 0, 2, 0, 0, 0, 0, 0, 0},       // wrong tag
		MarshalRequest(&Request{Seq: 7, Detail: "abc"})[:14], // truncated detail
	}
	for i, c := range cases {
		if _, err := UnmarshalRequest(c); err == nil {
			t.Errorf("case %d: UnmarshalRequest succeeded, want error", i)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	in := &Reply{
		Seq:     42,
		Servers: []string{"dalmatian:9000", "dione:9000", "192.168.1.5:9000"},
	}
	b, err := MarshalReply(in)
	if err != nil {
		t.Fatalf("MarshalReply: %v", err)
	}
	out, err := UnmarshalReply(b)
	if err != nil {
		t.Fatalf("UnmarshalReply: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestReplyWithError(t *testing.T) {
	in := &Reply{Seq: 9, Err: "requirement: line 1: division by 0"}
	b, err := MarshalReply(in)
	if err != nil {
		t.Fatalf("MarshalReply: %v", err)
	}
	out, err := UnmarshalReply(b)
	if err != nil {
		t.Fatalf("UnmarshalReply: %v", err)
	}
	if out.Err != in.Err || len(out.Servers) != 0 {
		t.Errorf("got %+v, want %+v", out, in)
	}
}

func TestMarshalReplyEnforcesServerCap(t *testing.T) {
	// §3.6.1 caps the reply list at 60 because the reply is one UDP
	// datagram.
	r := &Reply{Seq: 1, Servers: make([]string, MaxServers+1)}
	for i := range r.Servers {
		r.Servers[i] = "h"
	}
	if _, err := MarshalReply(r); err == nil {
		t.Error("MarshalReply accepted more than MaxServers servers")
	}
	r.Servers = r.Servers[:MaxServers]
	if _, err := MarshalReply(r); err != nil {
		t.Errorf("MarshalReply rejected exactly MaxServers servers: %v", err)
	}
}

func TestMarshalReplyRejectsNewlines(t *testing.T) {
	if _, err := MarshalReply(&Reply{Servers: []string{"a\nb"}}); err == nil {
		t.Error("MarshalReply accepted a server name with newline")
	}
	if _, err := MarshalReply(&Reply{Err: "x\ny"}); err == nil {
		t.Error("MarshalReply accepted an error with newline")
	}
}

func TestPropertyRequestRoundTrip(t *testing.T) {
	prop := func(seq uint32, num uint16, opt uint16, detail string) bool {
		in := &Request{Seq: seq, ServerNum: num, Option: Option(opt), Detail: detail}
		out, err := UnmarshalRequest(MarshalRequest(in))
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyReplyRoundTrip(t *testing.T) {
	prop := func(seq uint32, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(MaxServers + 1)
		servers := make([]string, n)
		for i := range servers {
			servers[i] = strings.Repeat("x", 1+r.Intn(20))
		}
		in := &Reply{Seq: seq, Servers: servers}
		b, err := MarshalReply(in)
		if err != nil {
			return false
		}
		out, err := UnmarshalReply(b)
		if err != nil {
			return false
		}
		if n == 0 {
			return len(out.Servers) == 0 && out.Seq == seq
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalReplyRejectsCountMismatch(t *testing.T) {
	b, err := MarshalReply(&Reply{Seq: 1, Servers: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	// Claim 3 servers but carry 2.
	b[6] = 3
	if _, err := UnmarshalReply(b); err == nil {
		t.Error("UnmarshalReply accepted a count mismatch")
	}
}

// TestParseReplyAllocations pins what a decode keeps: one string for
// all n names and their slice, the error text alone, or nothing.
func TestParseReplyAllocations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply Reply
		want  float64
	}{
		{"names", Reply{Seq: 1, Servers: []string{"alpha:1", "beta:2", "gamma:3"}}, 2},
		{"error only", Reply{Seq: 2, Err: "no qualified server"}, 1},
		{"empty", Reply{Seq: 3}, 0},
	} {
		b, err := MarshalReply(&tc.reply)
		if err != nil {
			t.Fatal(err)
		}
		var r Reply
		allocs := testing.AllocsPerRun(100, func() {
			if err := ParseReply(b, &r); err != nil {
				t.Fatal(err)
			}
		})
		if !reflect.DeepEqual(r, tc.reply) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, r, tc.reply)
		}
		if allocs != tc.want {
			t.Errorf("%s: ParseReply allocates %v objects, want %v", tc.name, allocs, tc.want)
		}
	}
}

func TestOverloadedErrRoundTrip(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want time.Duration
	}{
		{100 * time.Millisecond, 100 * time.Millisecond},
		{1500 * time.Millisecond, 1500 * time.Millisecond},
		{1 * time.Millisecond, 1 * time.Millisecond},
		// Sub-millisecond hints floor at 1ms: a client cannot usefully
		// act on a finer retry interval.
		{100 * time.Microsecond, 1 * time.Millisecond},
		{0, 1 * time.Millisecond},
	}
	for _, c := range cases {
		text := OverloadedErr(c.in)
		after, ok := RetryAfter(text)
		if !ok {
			t.Fatalf("RetryAfter(%q) not recognised", text)
		}
		if after != c.want {
			t.Fatalf("RetryAfter(OverloadedErr(%v)) = %v, want %v", c.in, after, c.want)
		}
	}
}

func TestRetryAfterRejectsOtherErrors(t *testing.T) {
	for _, text := range []string{
		"",
		"no server satisfies the requirement",
		"overloaded",
		"overloaded, retry-after=",
		"overloaded, retry-after=bogus",
		"overloaded, retry-after=-5ms",
		"overloaded, retry-after=0s",
	} {
		if after, ok := RetryAfter(text); ok {
			t.Fatalf("RetryAfter(%q) = %v, want no hint", text, after)
		}
	}
}

func TestOverloadedErrSurvivesReplyEncoding(t *testing.T) {
	// The hint rides inside the normal Err field: encode and decode a
	// reply carrying it and check the hint survives the wire.
	r := &Reply{Seq: 42, Err: OverloadedErr(250 * time.Millisecond)}
	wire, err := MarshalReply(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalReply(wire)
	if err != nil {
		t.Fatal(err)
	}
	after, ok := RetryAfter(got.Err)
	if !ok || after != 250*time.Millisecond {
		t.Fatalf("hint did not survive the wire: %q → %v/%v", got.Err, after, ok)
	}
}
