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
type Timer struct{ C <-chan Time }
func NewTimer(d Duration) *Timer { return nil }
type Ticker struct{ C <-chan Time }
func NewTicker(d Duration) *Ticker { return nil }
`,
	"strings": `package strings
type Builder struct{ buf []byte }
func (b *Builder) WriteByte(c byte) error { return nil }
func (b *Builder) String() string { return "" }
`,
	"smartsock/internal/reqlang": `package reqlang
type CmpOp int
type Constraint struct{ Op CmpOp; Value float64 }
type Env struct{ strs []string }
func (e *Env) Hosts(lane int) (denied, preferred []string) { return nil, nil }
func (e *Env) Param(k, lane int) (str int, denied bool) { return 0, false }
`,
	"smartsock/internal/loop": `package loop
import "context"
type Group struct{ n int }
func NewGroup(ctx context.Context) (*Group, context.Context) { return nil, ctx }
func (g *Group) Go(name string, run func(context.Context) error) {}
func (g *Group) Wait() error { return nil }
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
		// ---- mutexheld: an unlock in a returning block ------------------
		{
			name:     "mutexheld/an early-return unlock does not end the held region",
			analyzer: "mutexheld",
			src: `package lib
import ("net"; "sync")
type R struct { mu sync.Mutex; conn net.Conn }
func (r *R) Write(p []byte) (int, error) {
	r.mu.Lock()
	if r.conn == nil {
		if err := r.redial(); err != nil {
			r.mu.Unlock()
			return 0, err
		}
	}
	conn := r.conn
	n, err := conn.Write(p)
	r.mu.Unlock()
	return n, err
}
func (r *R) redial() error { return nil }
`,
			want: []int{13},
		},
		{
			name:     "mutexheld/an early-return unlock: the lock is held on the path past it",
			analyzer: "mutexheld",
			src: `package lib
import ("net"; "sync")
type R struct { mu sync.Mutex; conn net.Conn }
func (r *R) Write(p []byte) (int, error) {
	if r.conn == nil {
		r.mu.Unlock()
		return 0, nil
	}
	return r.conn.Write(p)
}
`,
			want: []int{9},
		},
		// ---- ctorpair ----------------------------------------------------
		{
			name:     "ctorpair/NewX beside NewXObs",
			analyzer: "ctorpair",
			pkgPath:  "smartsock/internal/transport",
			src: `package transport
type Registry struct{}
type Transmitter struct{ reg *Registry }
func NewTransmitter() *Transmitter { return NewTransmitterObs(nil) }
func NewTransmitterObs(reg *Registry) *Transmitter { return &Transmitter{reg: reg} }
`,
			want: []int{4},
		},
		{
			name:     "ctorpair/NewXObs alone, and reqlang's NewCache",
			analyzer: "ctorpair",
			pkgPath:  "smartsock/internal/reqlang",
			src: `package reqlang
type Registry struct{}
type Cache struct{ reg *Registry }
func NewCache(max int) *Cache { return NewCacheObs(max, nil) }
func NewCacheObs(max int, reg *Registry) *Cache { return &Cache{reg: reg} }
type Receiver struct{}
func NewReceiverObs(reg *Registry) *Receiver { return &Receiver{} }
func (c *Cache) NewReceiver() *Receiver { return nil }
`,
			want: nil,
		},
		// ---- oneeval -----------------------------------------------------
		{
			name:     "oneeval/a recursive evaluator over the AST",
			analyzer: "oneeval",
			pkgPath:  "smartsock/internal/reqlang",
			src: `package reqlang
type node interface{}
type Value float64
type evaluator struct{ vars map[string]Value }
func (e *evaluator) eval(n node) (Value, error) { return 0, nil }
func evalBool(n node) (bool, error) { return false, nil }
`,
			want: []int{5, 6},
		},
		{
			name:     "oneeval/compiling a node is not evaluating it",
			analyzer: "oneeval",
			pkgPath:  "smartsock/internal/reqlang",
			src: `package reqlang
type node interface{}
type Program struct{ code []int }
func stripParens(n node) node { return n }
func (p *Program) emit(n node) error { return nil }
func (p *Program) Run(env []float64) (float64, error) { return 0, nil }
`,
			want: nil,
		},
		// ---- wizardnomutex -----------------------------------------------
		{
			name:     "wizardnomutex/a mutex in the Wizard",
			analyzer: "wizardnomutex",
			pkgPath:  "smartsock/internal/wizard",
			filename: "wizard.go",
			src: `package wizard
import "sync"
type Wizard struct {
	cfg   int
	varMu sync.Mutex
	stats struct{ mu *sync.RWMutex }
}
`,
			want: []int{5, 6},
		},
		{
			name:     "wizardnomutex/a mutex elsewhere in the package",
			analyzer: "wizardnomutex",
			pkgPath:  "smartsock/internal/wizard",
			src: `package wizard
import "sync"
type Wizard struct {
	cfg int // no sync.Mutex: answers run on every drain loop
}
type templates struct {
	mu sync.RWMutex
}
`,
			want: nil,
		},
		// ---- hostlists -----------------------------------------------
		{
			name:     "hostlists/the per-lane matcher",
			analyzer: "hostlists",
			pkgPath:  "smartsock/internal/core",
			filename: "select.go",
			src: `package core
import "smartsock/internal/reqlang"
func splitHost(addr string) (string, bool) { return addr, false }
func listed(env *reqlang.Env, lane int, host string) bool {
	denied, _ := env.Hosts(lane)
	lists := env.Hosts
	_, _ = lists(lane)
	h, _ := splitHost(host)
	return len(denied) > 0 && h != ""
}
`,
			want: []int{5, 6, 8},
		},
		{
			name:     "hostlists/hosts.go resolves names once",
			analyzer: "hostlists",
			pkgPath:  "smartsock/internal/core",
			filename: "hosts.go",
			src: `package core
import "smartsock/internal/reqlang"
func splitHost(addr string) (string, bool) { return addr, false }
func hostKey(addr string) string { h, _ := splitHost(addr); return h }
func listed(env *reqlang.Env, k, lane int) bool {
	_, denied := env.Param(k, lane) // not env.Hosts(lane): positions, not names
	return denied
}
`,
			want: nil,
		},
		// ---- treemerge -----------------------------------------------
		{
			name:     "treemerge/stored page lists offered one by one",
			analyzer: "treemerge",
			pkgPath:  "smartsock/internal/core",
			src: `package core
type candidate struct{ pos int }
type pageWinners struct{ top []candidate }
type memoEntry struct{ pages []pageWinners }
type Selector struct{}
func (s *Selector) evaluate(memo *memoEntry, offer func(candidate)) {
	for p := range memo.pages {
		for _, c := range memo.pages[p].top {
			offer(c)
		}
	}
	hit := func(w *pageWinners) {
		for _, c := range w.top { offer(c) }
	}
	hit(&memo.pages[0])
}
`,
			want: []int{8, 13},
		},
		{
			name:     "treemerge/a leaf refreshed, the lists merged elsewhere",
			analyzer: "treemerge",
			pkgPath:  "smartsock/internal/core",
			src: `package core
type candidate struct{ pos int }
type pageWinners struct{ top []candidate }
type topN struct{ items []candidate }
type memoEntry struct{ pages []pageWinners; out topN }
type Selector struct{}
func (s *Selector) evaluate(memo *memoEntry, offer func(candidate)) {
	w := &memo.pages[0]
	w.top = w.top[:0]
	for _, c := range memo.out.items { offer(c) }
}
func (e *memoEntry) merge(a, b *pageWinners) int {
	n := 0
	for range a.top { n++ }
	return n + len(b.top)
}
`,
			want: nil,
		},
		// ---- optable -----------------------------------------------------
		{
			name:     "optable/a second precedence table",
			analyzer: "optable",
			pkgPath:  "smartsock/internal/reqlang",
			filename: "parser.go",
			src: `package reqlang
type tokenKind int
var binPrec = map[tokenKind]int{1: 4}
func prec(k tokenKind) int { m := make(map[tokenKind]int); return m[k] + binPrec[k] }
`,
			want: []int{3, 4},
		},
		{
			name:     "optable/token text copied in the scanner",
			analyzer: "optable",
			pkgPath:  "smartsock/internal/reqlang",
			filename: "lexer.go",
			src: `package reqlang
import "strings"
func scanString(src string) string {
	var b strings.Builder
	b.WriteByte(src[0])
	return b.String()
}
`,
			want: []int{4},
		},
		{
			name:     "optable/one table indexed by kind",
			analyzer: "optable",
			pkgPath:  "smartsock/internal/reqlang",
			filename: "lexer.go",
			src: `package reqlang
type tokenKind int
var operators = [...]struct{ text string; prec int }{1: {"+", 4}}
func prec(k tokenKind) int { return operators[k].prec } // not a map[tokenKind]int
var names = map[string]tokenKind{"+": 1}
`,
			want: nil,
		},
		// ---- cmptype -----------------------------------------------------
		{
			name:     "cmptype/a comparison type in the index",
			analyzer: "cmptype",
			pkgPath:  "smartsock/internal/index",
			src: `package index
type Op int
type Constraint struct{ Op Op; Value float64 }
type Set struct{}
`,
			want: []int{2, 3},
		},
		{
			name:     "cmptype/a converter in core",
			analyzer: "cmptype",
			pkgPath:  "smartsock/internal/core",
			src: `package core
import "smartsock/internal/reqlang"
func cmpToIndex(op reqlang.CmpOp) int { return int(op) }
func apply(c reqlang.Constraint, v float64) bool { return v > c.Value }
`,
			want: []int{3},
		},
		{
			name:     "cmptype/the constraint passed as it is",
			analyzer: "cmptype",
			pkgPath:  "smartsock/internal/core",
			src: `package core
import "smartsock/internal/reqlang"
type Op int // a core type of that name is not the index's
func apply(c reqlang.Constraint, v float64) bool { return c.Op == reqlang.CmpOp(0) && v > c.Value }
`,
			want: nil,
		},
		// ---- thesispreset ------------------------------------------------
		{
			name:     "thesispreset/wizardd's preset sets a serving knob",
			analyzer: "thesispreset",
			pkgPath:  "smartsock/cmd/wizardd",
			src: `package main
var (
	compat    = new(bool)
	maxQueue  = new(int)
	rateLimit = new(float64)
	shards    = new(int)
)
func run() {
	if *compat {
		// Pass-through admission.
		*maxQueue, *rateLimit = 0, 0
		*shards = 1
		*maxQueue, *shards = 0, 1
	}
}
func main() { run() }
`,
			want: []int{12, 13},
		},
		{
			name:     "thesispreset/sysmond has no preset block",
			analyzer: "thesispreset",
			pkgPath:  "smartsock/cmd/sysmond",
			src: `package main
var (
	compat = new(bool)
	missed = new(int)
)
func main() {
	if *compat {
		*missed = 3
	}
}
`,
			want: []int{8},
		},
		{
			name:     "thesispreset/wire and admission only",
			analyzer: "thesispreset",
			pkgPath:  "smartsock/cmd/wizardd",
			src: `package main
var (
	compat    = new(bool)
	maxQueue  = new(int)
	rateLimit = new(float64)
	shards    = new(int)
)
func main() {
	if *compat {
		*maxQueue, *rateLimit = 0, 0 // not *shards = 1
	}
	if *shards > 1 {
		*shards = 1
	}
}
`,
			want: nil,
		},
		// ---- runloop -----------------------------------------------------
		{
			name:     "runloop/a ticker beside loop.Every",
			analyzer: "runloop",
			pkgPath:  "smartsock/internal/probe",
			src: `package probe
import "time"
func run(report func()) {
	t := time.NewTicker(time.Second)
	for range t.C { report() }
}
`,
			want: []int{4},
		},
		{
			name:     "runloop/a timer as a value, and one in a closure",
			analyzer: "runloop",
			pkgPath:  "smartsock/internal/monitor",
			src: `package monitor
import "time"
var newTimer = time.NewTimer
func expire(d time.Duration, f func()) {
	go func() { t := time.NewTimer(d); <-t.C; f() }()
}
`,
			want: []int{3, 5},
		},
		{
			name:     "runloop/loop.Every's own timer, and a comment naming one",
			analyzer: "runloop",
			pkgPath:  "smartsock/internal/loop",
			src: `package loop
import "time"
func Every(d time.Duration) { t := time.NewTimer(d); <-t.C }
`,
			want: nil,
		},
		{
			name:     "runloop/a wait outside the periodic components",
			analyzer: "runloop",
			pkgPath:  "smartsock/internal/probe",
			src: `package probe
import "time"
func pace(d time.Duration) <-chan time.Time {
	return nil // not time.NewTimer(d).C: the round waits in loop.Every
}
`,
			want: nil,
		},
		// ---- componentend ------------------------------------------------
		{
			name:     "componentend/components started with their end dropped",
			analyzer: "componentend",
			pkgPath:  "smartsock/internal/testbed",
			src: `package testbed
import ("context"; "net")
type Monitor struct{}
func (m *Monitor) Run(ctx context.Context) error { return nil }
type Transmitter struct{}
func (t *Transmitter) ServePassive(ctx context.Context, ln net.Listener) error { return nil }
func start(ctx context.Context, mon *Monitor, tx *Transmitter, ln net.Listener) {
	go mon.Run(ctx)
	_ = tx.ServePassive(ctx, ln)
	run := mon.Run
	go run(ctx)
	go func() { mon.Run(ctx) }()
	defer mon.Run(ctx)
}
`,
			want: []int{8, 9, 10, 12, 13},
		},
		{
			name:     "componentend/group members and a waited-for Run",
			analyzer: "componentend",
			pkgPath:  "smartsock/cmd/sysmond",
			src: `package main
import ("context"; "net"; "smartsock/internal/loop")
type Monitor struct{}
func (m *Monitor) Run(ctx context.Context) error { return nil }
type Transmitter struct{}
func (t *Transmitter) ServePassive(ctx context.Context, ln net.Listener) error { return nil }
func run(ctx context.Context, mon *Monitor, tx *Transmitter, ln net.Listener) error {
	g, ctx := loop.NewGroup(ctx)
	g.Go("system monitor", mon.Run)
	g.Go("transmitter", func(ctx context.Context) error { return tx.ServePassive(ctx, ln) })
	if err := mon.Run(ctx); err != nil { return err } // go mon.Run(ctx) would drop it
	return g.Wait()
}
func main() {}
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

	// Rows of the rule table are suppressed by their names too.
	rows := checkFixture(t, "smartsock/internal/pacer", "fixture.go", `package pacer
import "time"
func Wait() {
	//lint:ignore sleepfree the fixture sleeps on purpose
	time.Sleep(time.Second)
	panic("unreachable") //lint:ignore nopanic the fixture panics on purpose
}
`)
	if findings := lint.Run([]*lint.Package{rows}, lint.Analyzers()); len(findings) != 0 {
		t.Errorf("suppressed rule findings reported: %v", findings)
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
		"mutexheld", "deadline", "errdrop", "sleepfree", "nopanic",
		"ctorpair", "oneeval", "wizardnomutex", "hostlists", "treemerge", "optable",
		"cmptype", "thesispreset", "runloop", "componentend", "lockorder",
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
