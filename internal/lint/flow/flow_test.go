package flow_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"smartsock/internal/lint"
	"smartsock/internal/lint/flow"
)

// flowSuite is the registered module-level analyzer set.
var flowSuite = []*lint.Analyzer{flow.LockOrder}

// Fixtures type-check against tiny in-memory stand-ins for their
// imports, mirroring the lint package's own test harness: hermetic,
// fast, and method resolution behaves exactly like the real packages
// because only the declared import paths matter to the analyzers.
var stubSources = map[string]string{
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
}

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

// marker is one want:/nowant: annotation in a fixture source file.
type marker struct {
	file     string
	line     int
	analyzer string
	want     bool
}

var markerRE = regexp.MustCompile(`//\s*(nowant|want):(\w+)`)

// loadFixture parses and type-checks every file of one testdata
// mini-package, collecting its finding markers.
func loadFixture(t *testing.T, dir, pkgPath string) (*lint.Package, []marker) {
	t.Helper()
	root := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var marks []marker
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(root, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		file, err := parser.ParseFile(fset, filepath.Join(root, e.Name()), src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse fixture %s: %v", e.Name(), err)
		}
		files = append(files, file)
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range markerRE.FindAllStringSubmatch(line, -1) {
				known := false
				for _, a := range flowSuite {
					if a.Name == m[2] {
						known = true
					}
				}
				if !known {
					t.Fatalf("%s:%d: marker names unknown analyzer %q", e.Name(), i+1, m[2])
				}
				marks = append(marks, marker{
					file:     filepath.Join(root, e.Name()),
					line:     i + 1,
					analyzer: m[2],
					want:     m[1] == "want",
				})
			}
		}
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s has no Go files", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: newStubImporter()}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-check fixture %s: %v", dir, err)
	}
	return &lint.Package{
		Path:  pkgPath,
		Name:  files[0].Name.Name,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, marks
}

type findingKey struct {
	file     string
	line     int
	analyzer string
}

// TestFlowFixtures runs the whole flow suite over each fixture
// package and requires the findings to match the want: markers
// exactly — a finding without a marker fails just like a marker
// without a finding.
func TestFlowFixtures(t *testing.T) {
	cases := []struct{ dir, pkgPath string }{
		{"lofix", "smartsock/internal/lofix"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg, marks := loadFixture(t, tc.dir, tc.pkgPath)
			findings := lint.Run([]*lint.Package{pkg}, flowSuite)

			got := make(map[findingKey]int)
			for _, f := range findings {
				got[findingKey{f.Pos.Filename, f.Pos.Line, f.Analyzer}]++
			}
			want := make(map[findingKey]int)
			for _, m := range marks {
				k := findingKey{m.file, m.line, m.analyzer}
				if m.want {
					want[k]++
				} else if got[k] > 0 {
					t.Errorf("line %d: unexpected %s finding on a nowant line", m.line, m.analyzer)
				}
			}
			for k, n := range want {
				if got[k] != n {
					t.Errorf("line %d: %d %s finding(s), want %d", k.line, got[k], k.analyzer, n)
				}
			}
			for k, n := range got {
				if want[k] == 0 {
					t.Errorf("line %d: %d unmarked %s finding(s)", k.line, n, k.analyzer)
				}
			}
			if t.Failed() {
				for _, f := range findings {
					t.Logf("finding: %s", f)
				}
			}
		})
	}
}
