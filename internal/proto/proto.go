// Package proto defines the UDP request/reply messages exchanged
// between the client library and the wizard (Tables 3.5 and 3.6).
//
// A request is [sequence number, server number, option, request
// detail]; the reply echoes the sequence number and carries the list
// of selected server addresses. Both travel in single UDP datagrams,
// which is why the thesis caps the number of returned servers at 60.
package proto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"time"
	"unsafe"
)

// MaxServers is the upper bound on servers returned in one reply; the
// list must fit a single UDP datagram (§3.6.1).
const MaxServers = 60

// Option bits modify wizard behaviour (the thesis leaves the option
// field open for "special situations"; these are the ones this
// implementation defines).
type Option uint16

const (
	// OptPartialOK tells the wizard to return fewer servers than
	// requested when not enough qualify, instead of failing.
	OptPartialOK Option = 1 << iota
	// OptRankByExpr enables the Chapter 6 extension: the final
	// non-logical expression in the requirement is used as a score and
	// the top-N servers by that score are returned ("3 servers with
	// largest memory").
	OptRankByExpr
	// OptTemplate asks the wizard to treat the request detail as the
	// name of a predefined requirement template.
	OptTemplate
)

// Request is a client's server request (Table 3.5).
type Request struct {
	Seq       uint32 // random number matching replies to requests
	ServerNum uint16 // how many servers the caller wants
	Option    Option
	Detail    string // requirement text in the meta language
}

// Reply is the wizard's answer (Table 3.6).
type Reply struct {
	Seq     uint32
	Servers []string // selected server addresses, best first
	Err     string   // non-empty when the wizard rejected the request
}

const (
	msgRequest = 0x51 // 'Q'
	msgReply   = 0x52 // 'R'
)

// overloadedPrefix is the canonical shed-reply error text. The
// retry-after hint rides inside the existing Err field rather than a
// new wire field, so old clients still see an ordinary rejection and
// the reply format (and its golden frames) is untouched.
const overloadedPrefix = "overloaded, retry-after="

// OverloadedErr builds the reply error text the wizard's admission
// plane sends for a shed request: a machine-parseable retry-after
// hint that tells the client how long to back off before resending.
// Sub-millisecond fractions are rounded away so the text stays short
// and stable.
func OverloadedErr(retryAfter time.Duration) string {
	if retryAfter < time.Millisecond {
		retryAfter = time.Millisecond
	}
	return overloadedPrefix + retryAfter.Round(time.Millisecond).String()
}

// RetryAfter extracts the backoff hint from a reply's error text.
// ok is false when the text is not an overload rejection; a mangled
// duration also reports false, so callers can never honor garbage.
func RetryAfter(errText string) (time.Duration, bool) {
	rest, found := strings.CutPrefix(errText, overloadedPrefix)
	if !found {
		return 0, false
	}
	d, err := time.ParseDuration(rest)
	if err != nil || d <= 0 {
		return 0, false
	}
	return d, true
}

// MarshalRequest encodes a request datagram.
func MarshalRequest(r *Request) []byte {
	return AppendRequest(make([]byte, 0, 13+len(r.Detail)), r)
}

// AppendRequest encodes a request datagram onto b and returns the
// extended slice; the bytes are MarshalRequest's. The client appends
// into a pooled buffer so an exchange encodes without allocating.
func AppendRequest(b []byte, r *Request) []byte {
	b = append(b, msgRequest)
	b = binary.BigEndian.AppendUint32(b, r.Seq)
	b = binary.BigEndian.AppendUint16(b, r.ServerNum)
	b = binary.BigEndian.AppendUint16(b, uint16(r.Option))
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Detail)))
	return append(b, r.Detail...)
}

// UnmarshalRequest decodes a request datagram. The returned Request
// owns its Detail text and stays valid after b is reused.
func UnmarshalRequest(b []byte) (*Request, error) {
	r := new(Request)
	if err := ParseRequest(b, r); err != nil {
		return nil, err
	}
	r.Detail = strings.Clone(r.Detail)
	return r, nil
}

// ParseRequest decodes a request datagram into r without copying the
// requirement text: r.Detail aliases b, so r is valid only while b's
// bytes are stable. The wizard's serve loops parse into a per-loop
// scratch Request so a request storm decodes without allocating;
// callers that retain the request past the next buffer reuse must go
// through UnmarshalRequest instead.
func ParseRequest(b []byte, r *Request) error {
	if len(b) < 13 {
		return fmt.Errorf("proto: request datagram too short (%d bytes)", len(b))
	}
	if b[0] != msgRequest {
		return fmt.Errorf("proto: not a request datagram (tag 0x%02x)", b[0])
	}
	n := binary.BigEndian.Uint32(b[9:])
	if uint32(len(b)-13) != n {
		return fmt.Errorf("proto: request detail length %d does not match datagram (%d left)", n, len(b)-13)
	}
	r.Seq = binary.BigEndian.Uint32(b[1:])
	r.ServerNum = binary.BigEndian.Uint16(b[5:])
	r.Option = Option(binary.BigEndian.Uint16(b[7:]))
	r.Detail = ""
	if n > 0 {
		r.Detail = unsafe.String(&b[13], len(b)-13)
	}
	return nil
}

// MarshalReply encodes a reply datagram. Server names may not contain
// newlines; they are carried newline-separated after the header.
func MarshalReply(r *Reply) ([]byte, error) {
	size := 9 + len(r.Err)
	for _, s := range r.Servers {
		size += len(s) + 1
	}
	return AppendReply(make([]byte, 0, size), r)
}

// AppendReply encodes a reply datagram onto b and returns the
// extended slice. The wizard's serve loops pass a per-worker scratch
// buffer so a request storm marshals replies without allocating; the
// bytes produced are identical to MarshalReply's.
func AppendReply(b []byte, r *Reply) ([]byte, error) {
	if len(r.Servers) > MaxServers {
		return nil, fmt.Errorf("proto: %d servers exceeds reply limit %d", len(r.Servers), MaxServers)
	}
	for _, s := range r.Servers {
		if strings.ContainsAny(s, "\n") {
			return nil, fmt.Errorf("proto: server name %q contains newline", s)
		}
	}
	if strings.ContainsAny(r.Err, "\n") {
		return nil, fmt.Errorf("proto: error text contains newline")
	}
	b = append(b, msgReply)
	b = binary.BigEndian.AppendUint32(b, r.Seq)
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Servers)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Err)))
	b = append(b, r.Err...)
	for i, s := range r.Servers {
		if i > 0 {
			b = append(b, '\n')
		}
		b = append(b, s...)
	}
	return b, nil
}

// UnmarshalReply decodes a reply datagram into a new Reply.
func UnmarshalReply(b []byte) (*Reply, error) {
	r := new(Reply)
	if err := ParseReply(b, r); err != nil {
		return nil, err
	}
	return r, nil
}

// ParseReply decodes a reply datagram into r, which it leaves alone on
// error. Unlike ParseRequest it copies what it keeps, so r outlives b:
// Err when it is non-empty, and one string of the names, which
// Servers (a fresh slice) cuts at the newlines. A reply of n names
// therefore costs two allocations, an error-only reply one, an empty
// reply none.
func ParseReply(b []byte, r *Reply) error {
	if len(b) < 9 {
		return fmt.Errorf("proto: reply datagram too short (%d bytes)", len(b))
	}
	if b[0] != msgReply {
		return fmt.Errorf("proto: not a reply datagram (tag 0x%02x)", b[0])
	}
	seq := binary.BigEndian.Uint32(b[1:])
	n := int(binary.BigEndian.Uint16(b[5:]))
	if n > MaxServers {
		return fmt.Errorf("proto: reply claims %d servers, limit is %d", n, MaxServers)
	}
	errLen := int(binary.BigEndian.Uint16(b[7:]))
	b = b[9:]
	if len(b) < errLen {
		return fmt.Errorf("proto: truncated reply error text")
	}
	if bytes.IndexByte(b[:errLen], '\n') >= 0 {
		return fmt.Errorf("proto: error text contains newline")
	}
	tail := b[errLen:]
	if n == 0 && len(tail) != 0 {
		return fmt.Errorf("proto: trailing bytes in empty reply")
	}
	if k := bytes.Count(tail, []byte{'\n'}) + 1; n > 0 && k != n {
		return fmt.Errorf("proto: reply claims %d servers, carries %d", n, k)
	}
	r.Seq, r.Err, r.Servers = seq, string(b[:errLen]), nil
	if n > 0 {
		names := string(tail)
		r.Servers = make([]string, n)
		for i := range n - 1 {
			r.Servers[i], names, _ = strings.Cut(names, "\n")
		}
		r.Servers[n-1] = names
	}
	return nil
}
