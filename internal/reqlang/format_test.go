package reqlang

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatCanonicalises(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"a<1", "a < 1\n"},
		{"((a))", "a\n"},
		{"(a+b)*c", "(a + b) * c\n"},
		{"a+b*c", "a + b * c\n"},
		{"a = 3", "a = 3\n"},
		{"2^3^2", "2 ^ 3 ^ 2\n"},
		{"(2^3)^2", "(2 ^ 3) ^ 2\n"},
		{"-a < b", "-a < b\n"},
		{"-(a+b) < c", "-(a + b) < c\n"},
		{"sin( a , 0 )", ""}, // arity is eval-time; parse keeps both args
		{`user_preferred_host1 = "titan-x"`, `user_preferred_host1 = "titan-x"` + "\n"},
		{"user_denied_host1 = 10.0.0.1", "user_denied_host1 = 10.0.0.1\n"},
		{"x = a.b.example # comment", "x = a.b.example\n"},
		{"(a < b) && (c < d)", "a < b && c < d\n"},
		{"a && b || c", "a && b || c\n"},
		{"a || b && c", "a || b && c\n"},
		{"(a || b) && c", "(a || b) && c\n"},
	}
	for _, c := range cases {
		p, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		got := p.Format()
		if c.want != "" && got != c.want {
			t.Errorf("Format(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestFormatRoundTripsThesisExample(t *testing.T) {
	src := `host_system_load1 < 1
host_memory_used <= 250*1024*1024
host_cpu_free >= 0.9
host_network_tbytesps < 1024*1024  # for network IO
user_denied_host1 = 137.132.90.182
user_preferred_host1 = sagit.ddns.comp.nus.edu.sg
`
	p1 := mustParse(t, src)
	text := p1.Format()
	p2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse of %q: %v", text, err)
	}
	if !EqualPrograms(p1, p2) {
		t.Errorf("round trip changed the program:\noriginal: %q\nformatted: %q", src, text)
	}
}

// genExpr builds a random expression string from a grammar sample.
func genExpr(r *rand.Rand, depth int) string {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return []string{"1", "2.5", "0.9", "42"}[r.Intn(4)]
		case 1:
			return []string{"a", "b", "host_cpu_free", "x1"}[r.Intn(4)]
		case 2:
			return "-" + []string{"a", "3"}[r.Intn(2)]
		default:
			return []string{"sin", "abs", "sqrt"}[r.Intn(3)] + "(" + genExpr(r, depth-1) + ")"
		}
	}
	ops := []string{"+", "-", "*", "/", "^", "<", "<=", ">", ">=", "==", "!=", "&&", "||"}
	op := ops[r.Intn(len(ops))]
	l := genExpr(r, depth-1)
	rhs := genExpr(r, depth-1)
	if r.Intn(2) == 0 {
		return "(" + l + ") " + op + " (" + rhs + ")"
	}
	return l + " " + op + " " + rhs
}

func TestPropertyFormatRoundTrip(t *testing.T) {
	prop := func(seed int64, depthRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		src := genExpr(r, int(depthRaw%4)+1)
		p1, err := Parse(src)
		if err != nil {
			return true // generator made something illegal; fine
		}
		text := p1.Format()
		p2, err := Parse(text)
		if err != nil {
			t.Logf("formatted text does not parse: %q → %q: %v", src, text, err)
			return false
		}
		if !EqualPrograms(p1, p2) {
			t.Logf("round trip changed AST: %q → %q", src, text)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFormatPreservesEvaluation(t *testing.T) {
	envp := env(map[string]float64{
		"a": 2, "b": 3, "host_cpu_free": 0.9, "x1": -1,
	})
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := genExpr(r, 3)
		p1, err := Parse(src)
		if err != nil {
			return true
		}
		p2, err := Parse(p1.Format())
		if err != nil {
			return false
		}
		r1 := evalWith(p1, envp)
		r2 := evalWith(p2, envp)
		if (r1.Err == nil) != (r2.Err == nil) {
			return false
		}
		sameScore := r1.Score == r2.Score ||
			(math.IsNaN(r1.Score) && math.IsNaN(r2.Score))
		return r1.Qualified == r2.Qualified && sameScore && r1.HasScore == r2.HasScore
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

func TestEqualPrograms(t *testing.T) {
	a := mustParse(t, "a < b\nc = 3\n")
	b := mustParse(t, "(a) < (b)\nc = 3\n")
	if !EqualPrograms(a, b) {
		t.Error("paren-equivalent programs reported unequal")
	}
	c := mustParse(t, "a < b\nc = 4\n")
	if EqualPrograms(a, c) {
		t.Error("different programs reported equal")
	}
	d := mustParse(t, "a < b\n")
	if EqualPrograms(a, d) {
		t.Error("different lengths reported equal")
	}
}

func TestFormatStringsStayQuoted(t *testing.T) {
	p := mustParse(t, `machine_type == "i386"`)
	if got := p.Format(); !strings.Contains(got, `"i386"`) {
		t.Errorf("Format lost quotes: %q", got)
	}
}
