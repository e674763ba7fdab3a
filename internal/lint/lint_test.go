package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"smartsock/internal/lint"
	// Arm lockorder, as cmd/smartlint does: Analyzers() must return the
	// full registered set here.
	_ "smartsock/internal/lint/flow"
)

// Fixtures type-check against tiny in-memory stand-ins for the
// standard packages, so the analyzer tests are hermetic and fast: no
// GOROOT source is read, yet method resolution (including promotion
// through embedded net.Conn) behaves exactly as with the real thing,
// because only the declared package paths matter to the analyzers.
var stubSources = map[string]string{
	"time": `package time
type Duration int64
const Second Duration = 1000000000
type Time struct{ wall uint64 }
func (t Time) Add(d Duration) Time { return t }
func Now() Time { return Time{} }
func Sleep(d Duration) {}
`,
	"sync": `package sync
type Mutex struct{ state int32 }
func (m *Mutex) Lock() {}
func (m *Mutex) Unlock() {}
type RWMutex struct{ w Mutex }
func (m *RWMutex) Lock() {}
func (m *RWMutex) Unlock() {}
func (m *RWMutex) RLock() {}
func (m *RWMutex) RUnlock() {}
`,
	"context": `package context
type Context interface{ Err() error }
func Background() Context { return nil }
`,
	"io": `package io
type Reader interface{ Read(p []byte) (n int, err error) }
type Writer interface{ Write(p []byte) (n int, err error) }
func ReadFull(r Reader, buf []byte) (int, error) { return 0, nil }
func ReadAtLeast(r Reader, buf []byte, min int) (int, error) { return 0, nil }
`,
	"bufio": `package bufio
import "io"
type Writer struct{ wr io.Writer }
func NewWriter(w io.Writer) *Writer { return &Writer{wr: w} }
func (b *Writer) Write(p []byte) (int, error) { return 0, nil }
func (b *Writer) Flush() error { return nil }
`,
	"net": `package net
import "time"
type Addr interface{ String() string }
type Conn interface {
	Read(b []byte) (n int, err error)
	Write(b []byte) (n int, err error)
	Close() error
	SetDeadline(t time.Time) error
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}
type Listener interface {
	Accept() (Conn, error)
	Close() error
}
type UDPAddr struct{}
type UDPConn struct{}
func (c *UDPConn) Read(b []byte) (int, error) { return 0, nil }
func (c *UDPConn) Write(b []byte) (int, error) { return 0, nil }
func (c *UDPConn) ReadFromUDP(b []byte) (int, *UDPAddr, error) { return 0, nil, nil }
func (c *UDPConn) ReadFromUDPAddrPort(b []byte) (int, *UDPAddr, error) { return 0, nil, nil }
func (c *UDPConn) WriteToUDP(b []byte, addr *UDPAddr) (int, error) { return 0, nil }
func (c *UDPConn) Close() error { return nil }
func (c *UDPConn) SetDeadline(t time.Time) error { return nil }
func (c *UDPConn) SetReadDeadline(t time.Time) error { return nil }
func (c *UDPConn) SetWriteDeadline(t time.Time) error { return nil }
func Dial(network, address string) (Conn, error) { return nil, nil }
func DialTimeout(network, address string, timeout time.Duration) (Conn, error) { return nil, nil }
func Listen(network, address string) (Listener, error) { return nil, nil }
func JoinHostPort(host, port string) string { return "" }
`,
}

// stubImporter type-checks stub packages on demand.
type stubImporter struct {
	fset  *token.FileSet
	cache map[string]*types.Package
}

func newStubImporter() *stubImporter {
	return &stubImporter{fset: token.NewFileSet(), cache: map[string]*types.Package{}}
}

func (s *stubImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := s.cache[path]; ok {
		return pkg, nil
	}
	src, ok := stubSources[path]
	if !ok {
		return nil, fmt.Errorf("no stub for import %q", path)
	}
	file, err := parser.ParseFile(s.fset, path+"/stub.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, []*ast.File{file}, nil)
	if err != nil {
		return nil, err
	}
	s.cache[path] = pkg
	return pkg, nil
}

// checkFixture type-checks one in-memory file into a lint.Package.
func checkFixture(t *testing.T, pkgPath, filename, src string) *lint.Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: newStubImporter()}
	tpkg, err := conf.Check(pkgPath, fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	return &lint.Package{
		Path:  pkgPath,
		Name:  file.Name.Name,
		Fset:  fset,
		Files: []*ast.File{file},
		Types: tpkg,
		Info:  info,
	}
}

// findingLines extracts the line numbers of findings for one analyzer.
func findingLines(findings []lint.Finding, analyzer string) []int {
	var lines []int
	for _, f := range findings {
		if f.Analyzer == analyzer {
			lines = append(lines, f.Pos.Line)
		}
	}
	return lines
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAnalyzers(t *testing.T) {
	cases := []struct {
		name     string
		analyzer string
		pkgPath  string // default "example.com/lib"
		filename string // default "fixture.go"
		src      string
		want     []int // finding lines, in order
	}{
		// ---- mutexheld -------------------------------------------------
		{
			name:     "mutexheld/write under held mutex",
			analyzer: "mutexheld",
			src: `package lib
import ("net"; "sync")
type S struct { mu sync.Mutex; conn net.Conn }
func (s *S) Send(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn.Write(p)
}
`,
			want: []int{7},
		},
		{
			name:     "mutexheld/released before write",
			analyzer: "mutexheld",
			src: `package lib
import ("net"; "sync")
type S struct { mu sync.Mutex; conn net.Conn }
func (s *S) Send(p []byte) (int, error) {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	return conn.Write(p)
}
`,
			want: nil,
		},
		{
			name:     "mutexheld/goroutine does not inherit lock",
			analyzer: "mutexheld",
			src: `package lib
import ("net"; "sync")
type S struct { mu sync.Mutex; conn net.Conn }
func (s *S) Kick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() { s.conn.Write(nil) }()
}
`,
			want: nil,
		},
		{
			name:     "mutexheld/dial under lock and rwmutex read",
			analyzer: "mutexheld",
			src: `package lib
import ("net"; "sync")
type S struct { mu sync.RWMutex; conn net.Conn }
func (s *S) Redial(addr string) error {
	s.mu.Lock()
	c, err := net.Dial("tcp", addr)
	s.mu.Unlock()
	if err != nil { return err }
	s.mu.RLock()
	s.conn.Read(nil)
	s.mu.RUnlock()
	_ = c
	return nil
}
`,
			want: []int{6, 10},
		},
		{
			name:     "mutexheld/non-blocking net helpers are fine",
			analyzer: "mutexheld",
			src: `package lib
import ("net"; "sync")
var mu sync.Mutex
func Join(h, p string) string {
	mu.Lock()
	defer mu.Unlock()
	return net.JoinHostPort(h, p)
}
`,
			want: nil,
		},
		// ---- deadline --------------------------------------------------
		{
			name:     "deadline/read with nothing",
			analyzer: "deadline",
			src: `package lib
import "net"
func Recv(c net.Conn, p []byte) (int, error) { return c.Read(p) }
`,
			want: []int{3},
		},
		{
			name:     "deadline/set before read",
			analyzer: "deadline",
			src: `package lib
import ("net"; "time")
func Recv(c net.Conn, p []byte) (int, error) {
	c.SetReadDeadline(time.Now().Add(time.Second))
	return c.Read(p)
}
`,
			want: nil,
		},
		{
			name:     "deadline/context parameter covers",
			analyzer: "deadline",
			src: `package lib
import ("context"; "net")
func Recv(ctx context.Context, c net.Conn, p []byte) (int, error) { return c.Read(p) }
`,
			want: nil,
		},
		{
			name:     "deadline/literal inherits context",
			analyzer: "deadline",
			src: `package lib
import ("context"; "net")
func Serve(ctx context.Context, c net.Conn) {
	go func() { c.Read(nil) }()
}
`,
			want: nil,
		},
		{
			name:     "deadline/io.ReadFull on conn",
			analyzer: "deadline",
			src: `package lib
import ("io"; "net")
func Fill(c net.Conn, p []byte) (int, error) { return io.ReadFull(c, p) }
`,
			want: []int{3},
		},
		{
			name:     "deadline/ReadFromUDP without deadline",
			analyzer: "deadline",
			src: `package lib
import "net"
func Recv(c *net.UDPConn, p []byte) { c.ReadFromUDP(p) }
`,
			want: []int{3},
		},
		{
			name:     "deadline/package main exempt",
			analyzer: "deadline",
			src: `package main
import "net"
func recv(c net.Conn, p []byte) (int, error) { return c.Read(p) }
func main() {}
`,
			want: nil,
		},
		// ---- sleepfree -------------------------------------------------
		{
			name:     "sleepfree/raw sleep in internal package",
			analyzer: "sleepfree",
			pkgPath:  "smartsock/internal/pacer",
			src: `package pacer
import "time"
func Wait() { time.Sleep(time.Second) }
`,
			want: []int{3},
		},
		{
			name:     "sleepfree/injected sleep value is the approved pattern",
			analyzer: "sleepfree",
			pkgPath:  "smartsock/internal/pacer",
			src: `package pacer
import "time"
type P struct{ sleep func(time.Duration) }
func New() *P { return &P{sleep: time.Sleep} }
func (p *P) Wait() { p.sleep(time.Second) }
`,
			want: nil,
		},
		{
			name:     "sleepfree/non-internal package out of scope",
			analyzer: "sleepfree",
			pkgPath:  "example.com/lib",
			src: `package lib
import "time"
func Wait() { time.Sleep(time.Second) }
`,
			want: nil,
		},
		// ---- nopanic ---------------------------------------------------
		{
			name:     "nopanic/library panic",
			analyzer: "nopanic",
			src: `package lib
func MustPositive(n int) {
	if n <= 0 { panic("not positive") }
}
`,
			want: []int{3},
		},
		{
			name:     "nopanic/package main exempt",
			analyzer: "nopanic",
			src: `package main
func main() { panic("fatal") }
`,
			want: nil,
		},
		{
			name:     "nopanic/shadowed panic is not the builtin",
			analyzer: "nopanic",
			src: `package lib
func panicf(msg string) {}
func Check() { panicf("nope") }
`,
			want: nil,
		},
		// ---- errdrop ---------------------------------------------------
		{
			name:     "errdrop/bare close and set deadline",
			analyzer: "errdrop",
			src: `package lib
import ("net"; "time")
func Drop(c net.Conn) {
	c.Close()
	c.SetReadDeadline(time.Now())
}
`,
			want: []int{4, 5},
		},
		{
			name:     "errdrop/defer blank and handled are fine",
			analyzer: "errdrop",
			src: `package lib
import "net"
func Fine(c net.Conn) error {
	defer c.Close()
	_ = c.Close()
	if err := c.Close(); err != nil { return err }
	return nil
}
`,
			want: nil,
		},
		{
			name:     "errdrop/bufio flush",
			analyzer: "errdrop",
			src: `package lib
import ("bufio"; "net")
func Send(c net.Conn, p []byte) {
	w := bufio.NewWriter(c)
	w.Write(p)
	w.Flush()
}
`,
			want: []int{6},
		},
		{
			name:     "errdrop/test files are exempt",
			analyzer: "errdrop",
			filename: "fixture_test.go",
			src: `package lib
import "net"
func drop(c net.Conn) { c.Close() }
`,
			want: nil,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkgPath := tc.pkgPath
			if pkgPath == "" {
				pkgPath = "example.com/lib"
			}
			filename := tc.filename
			if filename == "" {
				filename = "fixture.go"
			}
			pkg := checkFixture(t, pkgPath, filename, tc.src)
			a, ok := lint.ByName(tc.analyzer)
			if !ok {
				t.Fatalf("unknown analyzer %q", tc.analyzer)
			}
			findings := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a})
			got := findingLines(findings, tc.analyzer)
			if !equalInts(got, tc.want) {
				t.Errorf("findings on lines %v, want %v\nfull findings: %v", got, tc.want, findings)
			}
		})
	}
}

func TestIgnoreDirectives(t *testing.T) {
	src := `package lib
import "net"
func A(c net.Conn) {
	//lint:ignore errdrop the peer is gone, nothing to do with the error
	c.Close()
}
func B(c net.Conn) {
	c.Close() //lint:ignore errdrop trailing directives work too
}
func C(c net.Conn) {
	//lint:ignore deadline wrong analyzer name does not suppress errdrop
	c.Close()
}
`
	pkg := checkFixture(t, "example.com/lib", "fixture.go", src)
	findings := lint.Run([]*lint.Package{pkg}, lint.Analyzers())
	got := findingLines(findings, "errdrop")
	if want := []int{12}; !equalInts(got, want) {
		t.Errorf("errdrop findings on lines %v, want %v\nfull findings: %v", got, want, findings)
	}
}

func TestMalformedDirectives(t *testing.T) {
	src := `package lib
//lint:ignore errdrop
func a() {}
//lint:ignore nosuchanalyzer because reasons
func b() {}
`
	pkg := checkFixture(t, "example.com/lib", "fixture.go", src)
	findings := lint.Run([]*lint.Package{pkg}, lint.Analyzers())
	got := findingLines(findings, "lint")
	if want := []int{2, 4}; !equalInts(got, want) {
		t.Errorf("directive findings on lines %v, want %v\nfull findings: %v", got, want, findings)
	}
}

// TestSuiteNames pins the analyzer set: CHANGING THIS LIST means
// updating README.md's correctness-tooling section too.
func TestSuiteNames(t *testing.T) {
	want := []string{
		"mutexheld", "deadline", "sleepfree", "nopanic", "errdrop", "lockorder",
	}
	as := lint.Analyzers()
	if len(as) != len(want) {
		t.Fatalf("%d analyzers, want %d", len(as), len(want))
	}
	for i, a := range as {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
}

// TestLoadSmoke exercises the go list loader against a real module
// package. It needs the go command and the module context, both of
// which the repo's own test runs always have.
func TestLoadSmoke(t *testing.T) {
	pkgs, err := lint.Load("smartsock/internal/proto")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "smartsock/internal/proto" {
		t.Fatalf("loaded %v, want exactly smartsock/internal/proto", pkgs)
	}
	if findings := lint.Run(pkgs, lint.Analyzers()); len(findings) != 0 {
		var b strings.Builder
		for _, f := range findings {
			fmt.Fprintf(&b, "\n  %s", f)
		}
		t.Errorf("unexpected findings in proto:%s", b.String())
	}
}

// TestToJSONRelativizes checks the repo-relative file paths smartlint
// -json prints.
func TestToJSONRelativizes(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("work", "repo")
	findings := []lint.Finding{
		{Pos: token.Position{Filename: filepath.Join(root, "internal", "x", "x.go"), Line: 3}, Analyzer: "lockorder", Message: "m"},
	}
	out := lint.ToJSON(findings, root)
	if out[0].File != "internal/x/x.go" {
		t.Errorf("in-root file = %q, want internal/x/x.go", out[0].File)
	}
	if out[0].Line != 3 {
		t.Errorf("line = %d, want 3", out[0].Line)
	}
}
