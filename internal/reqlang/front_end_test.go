package reqlang

// The front end's golden: for each input below, every token the
// scanner yields (kind, text, value, line and column), the scanner's
// error, and what Parse makes of the whole source — its statements'
// lines and source text, or its full error text. Error texts reach
// users verbatim in wizard replies, columns included, so a scanner or
// parser rewrite must leave this file byte-identical.
//
// Regenerate only after an intentional change to the language with:
//
//	go test ./internal/reqlang -run FrontEndGolden -update

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the front end's golden file")

var frontEndCorpus = []string{
	// TestParseErrorMessages' inputs.
	"(a + b",
	"a +",
	"a & b",
	"x | y",
	"! x",
	"1.2.3",
	`x = "sagit`,
	"floor(",
	"floor(1",
	") + 2",
	"* 3",
	"a b",
	"x =",
	"f(1,)",
	"a ~ b",
	// Errors on line 2 and later, after tabs, carriage returns and
	// comments.
	"a > 1\n\tb & c",
	"x = 1 # set x\n\t\ty ~ 2",
	"a < 2\r\n\tb | c\r\n",
	"# only a comment\n\n  ! x",
	"a = 1\n\n\t# note\n\tb = \"open",
	"ok > 0\n1.2.3 > 0",
	"x\n\t(a + b",
	"a >= 1\r\n\t\t) + 2",
	"a\n# c\n\tb c",
	"y = 2 # trailing\n\t\r\tfloor(1,",
	// The scanner's corners.
	"1.2.3.4.5",
	"a.-b",
	"a..b",
	"9.",
	"titan-x.lab",
	strings.Repeat("7", 400),
	"x = 1\n\xff",
	"host = \"caf\xc3\xa9\"",
	// Whole requirements.
	"host_system_load1 < 1\nhost_memory_used <= 250*1024*1024\n" +
		"host_cpu_free >= 0.9 && host_network_tbytes < 1.5e6\n",
	"# rank by free CPU\nuser_denied_host1 = 10.0.0.7\nuser_preferred_host1 = titan-x.lab\n" +
		"host_cpu_free > 0.2 || host_system_load1 <= 2\nt = 2^3^2 - -1\nmax(host_cpu_free, t/ 9) != 1 && t == 513\n",
	"a=\"x\"==\"X\",(b)>=(c)<d",
}

// frontEnd renders what the scanner and Parse make of src.
func frontEnd(src string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %q\n", src)
	l := newLexer(src)
	for {
		t, err := l.next()
		if err != nil {
			fmt.Fprintf(&b, "lex error: %s\n", err)
			break
		}
		fmt.Fprintf(&b, "%d:%d %v %q %s\n", t.line, t.col, t.kind, t.text,
			strconv.FormatFloat(t.num, 'g', -1, 64))
		if t.kind == tokEOF {
			break
		}
	}
	prog, err := Parse(src)
	if err != nil {
		fmt.Fprintf(&b, "parse error: %s\n", err)
		return b.String()
	}
	for _, st := range prog.Stmts {
		fmt.Fprintf(&b, "stmt line %d logical %v %q\n", st.Line, st.Logical, st.Src)
	}
	return b.String()
}

func TestFrontEndGolden(t *testing.T) {
	var b strings.Builder
	for _, src := range frontEndCorpus {
		b.WriteString(frontEnd(src))
	}
	got := b.String()
	path := filepath.Join("testdata", "front_end.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("front end differs from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("front end differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
