package reqlang

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// env is the name-keyed binding set a test writes by hand; evalWith
// adapts it to the program's slots.
func env(params map[string]float64) map[string]float64 { return params }

func evalWith(p *Program, params map[string]float64) Result {
	return p.EvalFrom(p.MapEnv(params), 0)
}

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return p
}

func TestParseThesisExampleRequirement(t *testing.T) {
	// The sample requirement file from §3.6.2, verbatim.
	src := `host_system_load1 < 1
host_memory_used <= 250*1024*1024
host_cpu_free >= 0.9
#ldjfaldjfalsjff #akldjfaldfj
#some comments
host_network_tbytesps < 1024*1024  # for network IO
# comments
user_denied_host1 = 137.132.90.182
user_preferred_host1 = sagit.ddns.comp.nus.edu.sg
#
`
	p := mustParse(t, src)
	if got := len(p.Stmts); got != 6 {
		t.Fatalf("parsed %d statements, want 6", got)
	}
	logical := 0
	for _, st := range p.Stmts {
		if st.Logical {
			logical++
		}
	}
	if logical != 4 {
		t.Errorf("%d logical statements, want 4", logical)
	}
	res := evalWith(p, env(map[string]float64{
		"host_system_load1":     0.3,
		"host_memory_used":      100 * 1024 * 1024,
		"host_cpu_free":         0.95,
		"host_network_tbytesps": 1024,
	}))
	if res.Err != nil {
		t.Fatalf("Eval error: %v", res.Err)
	}
	if !res.Qualified {
		t.Errorf("server should qualify (failed line %d)", res.FailedLine)
	}
	if len(res.Denied) != 1 || res.Denied[0] != "137.132.90.182" {
		t.Errorf("Denied = %v, want [137.132.90.182]", res.Denied)
	}
	if len(res.Preferred) != 1 || res.Preferred[0] != "sagit.ddns.comp.nus.edu.sg" {
		t.Errorf("Preferred = %v, want [sagit.ddns.comp.nus.edu.sg]", res.Preferred)
	}
}

func TestEvalDisqualifiesOnFailedStatement(t *testing.T) {
	p := mustParse(t, "host_cpu_free >= 0.9\nhost_memory_free > 5\n")
	res := evalWith(p, env(map[string]float64{
		"host_cpu_free":    0.95,
		"host_memory_free": 2,
	}))
	if res.Qualified {
		t.Error("server qualified despite failing memory constraint")
	}
	if res.FailedLine != 2 {
		t.Errorf("FailedLine = %d, want 2", res.FailedLine)
	}
}

func TestLogicalVsNonLogicalStatements(t *testing.T) {
	// Fig 4.2: "(a+b)<=b" is logical; "a+(b<c)" is not.
	cases := []struct {
		src     string
		logical bool
	}{
		{"(a+b) <= b", true},
		{"a + (b < c)", false},
		{"a && b", true},
		{"a = 3", false},
		{"(a)", false},
		{"((a < b))", true},
		{"3 + 4 * 2", false},
		{"x = a < b", false}, // assignment is the main operator
		{"-a < b", true},
		{"sin(a) < 0.5", true},
		{"sin(a < 0.5)", false},
	}
	for _, c := range cases {
		p := mustParse(t, c.src)
		if len(p.Stmts) != 1 {
			t.Fatalf("%q: got %d statements", c.src, len(p.Stmts))
		}
		if p.Stmts[0].Logical != c.logical {
			t.Errorf("%q: Logical = %v, want %v", c.src, p.Stmts[0].Logical, c.logical)
		}
	}
}

func TestTempVariablesAcrossLines(t *testing.T) {
	src := `limit = 250 * 1024
half = limit / 2
host_memory_used <= half
`
	p := mustParse(t, src)
	if ok := evalWith(p, env(map[string]float64{"host_memory_used": 1000})).Qualified; !ok {
		t.Error("1000 <= 128000 should qualify")
	}
	if ok := evalWith(p, env(map[string]float64{"host_memory_used": 1e9})).Qualified; ok {
		t.Error("1e9 <= 128000 should not qualify")
	}
}

func TestUndefinedVariableInLogicalStatementIsFalse(t *testing.T) {
	// §3.6.1: "If an uninitialized temp variable is used in the
	// logical statement, the whole statement will be considered as a
	// false statement."
	p := mustParse(t, "no_such_var < 10")
	res := evalWith(p, env(nil))
	if res.Qualified {
		t.Error("statement with undefined variable should be false")
	}
	if res.Err != nil {
		t.Errorf("undefined var in logical stmt should not be a hard error, got %v", res.Err)
	}
}

func TestUndefinedVariableInNonLogicalStatementIsHardError(t *testing.T) {
	p := mustParse(t, "x = no_such_var + 1")
	res := evalWith(p, env(nil))
	if res.Err == nil {
		t.Error("expected hard error for undefined var in non-logical statement")
	}
	if res.Qualified {
		t.Error("hard error must disqualify")
	}
}

func TestDivisionByZeroIsHardError(t *testing.T) {
	p := mustParse(t, "1 / 0 < 5")
	res := evalWith(p, env(nil))
	if res.Err == nil || !strings.Contains(res.Err.Error(), "division by 0") {
		t.Errorf("Err = %v, want division by 0", res.Err)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"v = 1 + 2 * 3", 7},
		{"v = (1 + 2) * 3", 9},
		{"v = 2 ^ 3 ^ 2", 512}, // right associative
		{"v = -2 ^ 2", 4},      // unary minus binds tighter: (-2)^2
		{"v = 10 - 2 - 3", 5},  // left associative
		{"v = 12 / 4 / 3", 1},
		{"v = (1 < 2) + (3 < 4)", 2},
		{"v = (2 < 1) || (1 < 2)", 1},
		{"v = (2 < 1) && (1 < 2)", 0},
		{"v = 1 + 2 < 2 + 2", 1}, // relational below additive
		{"v = max(3, min(10, 7))", 7},
		{"v = abs(-4.5)", 4.5},
		{"v = int(3.9)", 3},
		{"v = 2*pi/pi", 2},
	}
	for _, c := range cases {
		p := mustParse(t, c.src)
		v, err := p.evalStmt(p.NewEnv(), 0)
		if err != nil {
			t.Errorf("%q: eval error %v", c.src, err)
			continue
		}
		if math.Abs(v-c.want) > 1e-9 {
			t.Errorf("%q = %v, want %g", c.src, v, c.want)
		}
	}
}

func TestBuiltinFunctions(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"sin(0)", 0},
		{"cos(0)", 1},
		{"exp(1)", math.E},
		{"log10(1000)", 3},
		{"log(e)", 1},
		{"sqrt(16)", 4},
		{"pow(2, 10)", 1024},
		{"floor(2.7)", 2},
		{"ceil(2.1)", 3},
		{"tan(0)", 0},
		{"atan(0)", 0},
	}
	for _, c := range cases {
		p := mustParse(t, "v = "+c.src)
		v, err := p.evalStmt(p.NewEnv(), 0)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if math.Abs(v-c.want) > 1e-9 {
			t.Errorf("%q = %g, want %g", c.src, v, c.want)
		}
	}
}

func TestBuiltinErrors(t *testing.T) {
	for _, src := range []string{
		"v = sqrt(-1)",
		"v = log(0)",
		"v = log10(-5)",
		"v = nosuchfn(1)",
		"v = sin(1, 2)",
		"v = pow(2)",
	} {
		p := mustParse(t, src)
		if res := evalWith(p, env(nil)); res.Err == nil {
			t.Errorf("%q: expected evaluation error", src)
		}
	}
}

func TestNetAddrTokens(t *testing.T) {
	p := mustParse(t, `user_denied_host1 = 10.0.0.1
user_denied_host2 = bad.example.org
user_preferred_host1 = "titan-x"
`)
	res := evalWith(p, env(nil))
	if res.Err != nil {
		t.Fatalf("Eval: %v", res.Err)
	}
	wantDenied := map[string]bool{"10.0.0.1": true, "bad.example.org": true}
	if len(res.Denied) != 2 || !wantDenied[res.Denied[0]] || !wantDenied[res.Denied[1]] {
		t.Errorf("Denied = %v", res.Denied)
	}
	if len(res.Preferred) != 1 || res.Preferred[0] != "titan-x" {
		t.Errorf("Preferred = %v", res.Preferred)
	}
}

func TestBareWordHostInUserParamAssignment(t *testing.T) {
	// Table 5.5 writes user_denied_host1 = telesto with a bare word.
	p := mustParse(t, "user_denied_host1 = telesto")
	res := evalWith(p, env(nil))
	if res.Err != nil {
		t.Fatalf("Eval: %v", res.Err)
	}
	if len(res.Denied) != 1 || res.Denied[0] != "telesto" {
		t.Errorf("Denied = %v, want [telesto]", res.Denied)
	}
}

func TestUserParamAssignmentInsideConjunction(t *testing.T) {
	// Table 5.5 chains user_denied assignments with && inside one
	// logical statement.
	src := `(host_cpu_free > 0.9) && (user_denied_host1 = telesto) && (user_denied_host2 = mimas)`
	p := mustParse(t, src)
	res := evalWith(p, env(map[string]float64{"host_cpu_free": 0.95}))
	if res.Err != nil {
		t.Fatalf("Eval: %v", res.Err)
	}
	if !res.Qualified {
		t.Error("statement should be true: assignments yield truthy host strings")
	}
	if len(res.Denied) != 2 {
		t.Errorf("Denied = %v, want 2 hosts", res.Denied)
	}
}

func TestAssignToServerParamRejected(t *testing.T) {
	p := mustParse(t, "host_cpu_free = 1")
	res := evalWith(p, env(map[string]float64{"host_cpu_free": 0.2}))
	if res.Err == nil {
		t.Error("assigning to a server-side parameter should fail")
	}
}

func TestAssignToConstantRejected(t *testing.T) {
	p := mustParse(t, "pi = 3")
	if res := evalWith(p, env(nil)); res.Err == nil {
		t.Error("assigning to a constant should fail")
	}
}

func TestStringAttributeExtension(t *testing.T) {
	// Chapter 6 writes statements like machine_type == "i386". No status
	// record carries a string attribute and variables bind only as
	// numbers, so the name is undefined and its logical statement false
	// (the §3.6.1 rule), not an error; a number bound under the name is
	// never equal to a string.
	p := mustParse(t, "machine_type == \"i386\"\nhost_cpu_free > 0.5")
	for _, params := range []map[string]float64{
		{"host_cpu_free": 0.9},
		{"host_cpu_free": 0.9, "machine_type": 386},
	} {
		if res := evalWith(p, env(params)); res.Qualified || res.Err != nil || res.FailedLine != 1 {
			t.Errorf("%v: %+v, want line 1 false without an error", params, res)
		}
	}
}

func TestStringComparisonCaseInsensitive(t *testing.T) {
	// Host names compare case-insensitively, literals, temporaries and
	// user parameters alike, and a host is reported as it was written.
	p := mustParse(t, "t = \"i386\"\nt == \"I386\"\nuser_denied_host1 = Telesto.Lab\nuser_denied_host1 == \"telesto.lab\"\n\"\u212a\" == \"k\"")
	res := evalWith(p, env(nil))
	if !res.Qualified || res.Err != nil {
		t.Errorf("host-name style comparison should be case-insensitive: %+v", res)
	}
	if len(res.Denied) != 1 || res.Denied[0] != "Telesto.Lab" {
		t.Errorf("Denied = %v, want [Telesto.Lab]", res.Denied)
	}
}

func TestMixedTypeEqualityIsFalse(t *testing.T) {
	p := mustParse(t, "t = \"386\"\nt == 386")
	res := evalWith(p, env(nil))
	if res.Err != nil {
		t.Fatalf("Eval: %v", res.Err)
	}
	if res.Qualified {
		t.Error("string/number equality should be false, not coerced")
	}
}

func TestRelationalOnStringsIsHardError(t *testing.T) {
	p := mustParse(t, "t = \"i386\"\nt < 5")
	res := evalWith(p, env(nil))
	if want := `operator '<' needs numbers, got "i386" and 5`; res.Err == nil || !strings.Contains(res.Err.Error(), want) {
		t.Errorf("Err = %v, want %s", res.Err, want)
	}
}

// TestStringClassesAreEqualFold checks the equality classes Parse
// resolves for interned strings against strings.EqualFold on every
// pair, folding orbits past ASCII and bytes that are not UTF-8
// included.
func TestStringClassesAreEqualFold(t *testing.T) {
	words := []string{"a", "A", "k", "K", "\u212a", "s", "S", "\u017f", "\u00df", "\u1e9e", "\u03c3", "\u03c2", "\u03a3",
		"\xff", "\xfe", "\ufffd", "titan-x", "TITAN-X", "titan-x ", "\u0130", "i", "\u0131", "\u01c4", "\u01c5", "\u01c6"}
	src := ""
	for _, w := range words {
		src += "t = \"" + w + "\"\n"
	}
	p := mustParse(t, src)
	if p.strs[0] != "" || len(p.strs) != len(words)+1 {
		t.Fatalf("string table %q, want \"\" then the %d words", p.strs, len(words))
	}
	for i, x := range p.strs {
		for j, y := range p.strs {
			if same := p.class[i] == p.class[j]; same != strings.EqualFold(x, y) {
				t.Errorf("%q and %q: same class %v, EqualFold %v", x, y, same, !same)
			}
		}
	}
}

func TestScoreFromLastNonLogicalStatement(t *testing.T) {
	src := `host_cpu_free > 0.1
host_memory_free * 2
`
	p := mustParse(t, src)
	res := evalWith(p, env(map[string]float64{"host_cpu_free": 0.5, "host_memory_free": 21}))
	if !res.HasScore || res.Score != 42 {
		t.Errorf("Score = %v (has=%v), want 42", res.Score, res.HasScore)
	}
}

func TestMeaninglessStatementQualifiesEverything(t *testing.T) {
	// §4.3: "A meaningless statement like 100 > 0 will make any server
	// as a qualified candidate."
	p := mustParse(t, "100 > 0")
	if !evalWith(p, env(nil)).Qualified {
		t.Error("100 > 0 should qualify any server")
	}
}

func TestEmptyRequirementQualifiesEverything(t *testing.T) {
	p := mustParse(t, "# only comments\n\n   \n")
	if len(p.Stmts) != 0 {
		t.Fatalf("got %d statements, want 0", len(p.Stmts))
	}
	if !evalWith(p, env(nil)).Qualified {
		t.Error("empty requirement should qualify all servers")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"a <",
		"a & b",
		"a | b",
		"(a < b",
		"a ! b",
		"1.2.3",
		`"unterminated`,
		"a @ b",
		"< 3",
		"a < b) c",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestSyntaxErrorHasPosition(t *testing.T) {
	_, err := Parse("a < 1\nb <\n")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Line != 2 {
		t.Errorf("error line = %d, want 2", se.Line)
	}
}

func TestEvalIsReusableAcrossServers(t *testing.T) {
	// One parsed Program is evaluated once per server; temp variables
	// and user params must not leak between evaluations.
	p := mustParse(t, "x = host_cpu_free\nx > 0.5\nuser_denied_host1 = 10.0.0.1\n")
	r1 := evalWith(p, env(map[string]float64{"host_cpu_free": 0.9}))
	r2 := evalWith(p, env(map[string]float64{"host_cpu_free": 0.1}))
	if !r1.Qualified || r2.Qualified {
		t.Errorf("qualified = %v/%v, want true/false", r1.Qualified, r2.Qualified)
	}
	if len(r1.Denied) != 1 || len(r2.Denied) != 1 {
		t.Errorf("denied lists = %v / %v, want one host each", r1.Denied, r2.Denied)
	}
}

func TestPropertyArithmeticMatchesGo(t *testing.T) {
	// For random small integer triples, the language's arithmetic and
	// comparisons agree with Go's.
	prop := func(a, b, c int8) bool {
		af, bf, cf := float64(a), float64(b), float64(c)
		p, err := Parse("v = a*b + c\nw = a - b*c\nq = (a < b) && (b < c)\n")
		if err != nil {
			return false
		}
		st := p.MapEnv(map[string]float64{"a": af, "b": bf, "c": cf})
		v, err1 := p.evalStmt(st, 0)
		w, err2 := p.evalStmt(st, 1)
		q, err3 := p.evalStmt(st, 2)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		wantQ := 0.0
		if af < bf && bf < cf {
			wantQ = 1
		}
		return v == af*bf+cf && w == af-bf*cf && q == wantQ
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyParseNeverPanics(t *testing.T) {
	prop := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		p, err := Parse(src)
		if err == nil && p != nil {
			evalWith(p, env(map[string]float64{"a": 1}))
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFig14StyleRequirement(t *testing.T) {
	// The Fig 1.4 walkthrough: 100 MB free memory, CPU usage < 10%,
	// delay < 20 ms, hacker.some.net blacklisted.
	src := `host_memory_free >= 100
host_cpu_user + host_cpu_system + host_cpu_nice < 0.10
monitor_network_delay < 20
user_denied_host1 = hacker.some.net
`
	p := mustParse(t, src)
	good := env(map[string]float64{
		"host_memory_free":      200,
		"host_cpu_user":         0.02,
		"host_cpu_system":       0.01,
		"host_cpu_nice":         0,
		"monitor_network_delay": 5,
	})
	res := evalWith(p, good)
	if !res.Qualified {
		t.Errorf("good server rejected (line %d, err %v)", res.FailedLine, res.Err)
	}
	if len(res.Denied) != 1 || res.Denied[0] != "hacker.some.net" {
		t.Errorf("Denied = %v", res.Denied)
	}
	slow := env(map[string]float64{
		"host_memory_free":      200,
		"host_cpu_user":         0.02,
		"host_cpu_system":       0.01,
		"host_cpu_nice":         0,
		"monitor_network_delay": 100, // network A in Fig 1.4
	})
	if evalWith(p, slow).Qualified {
		t.Error("network-A server (100 ms) should be rejected")
	}
}
