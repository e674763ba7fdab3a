package transport

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"smartsock/internal/obs"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// declaredRecordTypes reads the RecordType constants out of the status
// package's source. A test cannot range over a type's constants, and a
// constant nothing else mentions is exactly the case to catch, so the
// declaration itself is the list.
func declaredRecordTypes(t *testing.T) map[status.RecordType]string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "../status/status.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	types := make(map[status.RecordType]string)
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "RecordType" {
				continue
			}
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s is not declared with a literal value; teach this test its new form", name.Name)
				}
				v, err := strconv.ParseUint(lit.Value, 0, 8)
				if err != nil {
					t.Fatalf("%s = %s: %v", name.Name, lit.Value, err)
				}
				types[status.RecordType(v)] = name.Name
			}
		}
	}
	return types
}

// framesIn splits a recorded byte stream into its frames.
func framesIn(t *testing.T, raw []byte) []status.Frame {
	t.Helper()
	var out []status.Frame
	for r := bytes.NewReader(raw); ; {
		f, err := status.ReadFrame(r)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
}

// TestEveryRecordTypeIsWired is the owner of one bug class: a frame
// type that exists as a constant and nowhere else. Every RecordType the
// status package declares has to be named by String, put on the wire
// by one of the real sender paths (a push stream's snapshot and delta
// epochs, a receiver's pull request) and taken by the receiving end
// (Receiver.stage; ServePassive for the request). A type missing from
// any of the three fails here by its constant's name.
func TestEveryRecordTypeIsWired(t *testing.T) {
	declared := declaredRecordTypes(t)
	if len(declared) == 0 {
		t.Fatal("no RecordType constants found in ../status/status.go")
	}
	named := 0
	for rt := status.RecordType(1); !strings.HasPrefix(rt.String(), "RecordType("); rt++ {
		named++
	}
	if named != len(declared) {
		t.Errorf("String names RecordType 1..%d, the package declares %d constants: the two lists differ", named, len(declared))
	}

	// Sender side, push: a stream's first epoch is a full snapshot
	// closed by its mark, the next one a delta in all three tables.
	src := seedDB()
	tx, err := NewTransmitterObs(src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := memConn{new(bytes.Buffer)}
	var sess pushSession
	if err := tx.pushEpoch(wire, &sess); err != nil {
		t.Fatal(err)
	}
	src.PutSys(status.ServerStatus{Host: "helene", Load1: 0.9})
	src.PutNet(status.NetMetric{From: "m1", To: "m2", Delay: 9 * time.Millisecond})
	src.PutSec(status.SecLevel{Host: "helene", Level: 1})
	if err := tx.pushEpoch(wire, &sess); err != nil {
		t.Fatal(err)
	}

	// Receiving side: stage takes each of those frames.
	reg := obs.NewRegistry()
	dst := store.New()
	recv, err := NewReceiverObs(dst, "127.0.0.1:0", nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	sent := make(map[status.RecordType]bool)
	taken := make(map[status.RecordType]bool)
	for _, f := range framesIn(t, wire.Bytes()) {
		sent[f.Type] = true
		var st staged
		if err := recv.stage(f, &st); err != nil {
			t.Errorf("Receiver.stage refuses the %v frame the transmitter sent: %v", f.Type, err)
			continue
		}
		taken[f.Type] = true
	}

	// Pull: what the receiver writes is the request, and a pull that
	// mirrors the source is a request ServePassive answered.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go tx.ServePassive(ctx, ln)
	var rec *recConn
	recv.Dial = func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		rec = &recConn{Conn: c}
		return rec, err
	}
	if err := recv.PullFrom([]string{ln.Addr().String()}, 2*time.Second); err != nil {
		t.Fatalf("pull: %v", err)
	}
	assertMirrored(t, src, dst)
	for _, f := range framesIn(t, rec.wrote.Bytes()) {
		sent[f.Type], taken[f.Type] = true, true
	}
	if n := count(t, reg, "transport_recv_unknown_frames"); n != 0 {
		t.Errorf("%d frames counted as unknown", n)
	}

	for rt, name := range declared {
		if strings.HasPrefix(rt.String(), "RecordType(") {
			t.Errorf("%s (%d) has no name in RecordType.String", name, rt)
		}
		if !sent[rt] {
			t.Errorf("%s: no sender path puts a %v frame on the wire", name, rt)
		}
		if !taken[rt] {
			t.Errorf("%s: nothing on the receiving end takes a %v frame", name, rt)
		}
	}
}
