package reqlang

import (
	"strings"
	"testing"
)

// TestParseErrorMessages pins the failure mode of every
// malformed-input class: each must fail loudly at Parse time — never
// silently succeed and reject every server at match time — and the
// message must name the actual problem, because wizard replies relay
// it verbatim to users.
func TestParseErrorMessages(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error message
	}{
		{"unterminated paren", "(a + b", "expected ')'"},
		{"dangling operator", "a +", "at start of expression"},
		{"single ampersand", "a & b", "only '&&' is defined"},
		{"single pipe", "x | y", "only '||' is defined"},
		{"bare bang", "! x", "only '!=' is defined"},
		{"two-dot number", "1.2.3", "neither a number nor a dotted-quad"},
		{"unterminated string", `x = "sagit`, "unterminated string literal"},
		{"unterminated call", "floor(", "at start of expression"},
		{"call missing rparen", "floor(1", "expected ')'"},
		{"leading rparen", ") + 2", "at start of expression"},
		{"operator at line start", "* 3", "at start of expression"},
		{"two expressions one line", "a b", "after expression"},
		{"assign without rhs", "x =", "at start of expression"},
		{"lone comma", "f(1,)", "at start of expression"},
		{"stray character", "a ~ b", "unexpected character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded with %d statements, want error",
					tc.src, len(prog.Stmts))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse(%q) error = %q, want substring %q", tc.src, err, tc.want)
			}
		})
	}
}

// evalScore parses and evaluates a single arithmetic statement and
// returns its score value.
func evalScore(t *testing.T, src string) float64 {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	res := prog.EvalFrom(nil, 0)
	if res.Err != nil {
		t.Fatalf("Eval(%q): %v", src, res.Err)
	}
	if !res.HasScore {
		t.Fatalf("Eval(%q) produced no score", src)
	}
	return res.Score
}

// TestOperatorPrecedenceEdges pins the corners of the expression
// grammar: exponent right-associativity, the unary-minus/exponent
// interaction, multiplication over addition, and logical grouping.
func TestOperatorPrecedenceEdges(t *testing.T) {
	arith := []struct {
		src  string
		want float64
	}{
		{"2^3^2", 512}, // right-assoc: 2^(3^2), not (2^3)^2 = 64
		{"-2^2", 4},    // unary minus binds tighter: (-2)^2, not -(2^2)
		{"-(2^2)", -4}, // parens restore the other reading
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"8 / 4 / 2", 1},  // left-assoc division
		{"10 - 4 - 3", 3}, // left-assoc subtraction
		{"2 * 3 ^ 2", 18}, // exponent over multiplication
		{"- 2 - - 3", 1},  // stacked unary minus
	}
	for _, tc := range arith {
		if got := evalScore(t, tc.src); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}

	logical := []struct {
		src       string
		qualified bool
	}{
		// && binds tighter than ||: true || (false && false).
		{"1 == 1 || 1 == 2 && 2 == 3", true},
		// Parens force the || first, then the false && side.
		{"(1 == 1 || 1 == 2) && 2 == 3", false},
		// Comparison chains are left-assoc, evaluating (1<2)=1, then 1<3.
		{"(1 < 2) < 3", true},
		{"1 < 2 < 3", true},
		// (3<2)=0, 0<1 is true — the classic C-style chain surprise,
		// pinned so a future grammar change is a conscious decision.
		{"3 < 2 < 1", true},
	}
	for _, tc := range logical {
		prog, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.src, err)
		}
		res := prog.EvalFrom(nil, 0)
		if res.Err != nil {
			t.Fatalf("Eval(%q): %v", tc.src, res.Err)
		}
		if res.Qualified != tc.qualified {
			t.Errorf("%q qualified = %v, want %v", tc.src, res.Qualified, tc.qualified)
		}
	}
}

// TestEvalHardErrors covers inputs that parse but must fail during
// evaluation with a hard error that disqualifies the server.
func TestEvalHardErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown function", "nosuchfn(1) > 0", "nosuchfn"},
		{"wrong arity", "floor(1, 2) > 0", "argument"},
		{"undefined in arithmetic", "x + 1", "undefined variable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Parse(tc.src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.src, err)
			}
			res := prog.EvalFrom(nil, 0)
			if res.Err == nil {
				t.Fatalf("Eval(%q) reported no error (qualified=%v)", tc.src, res.Qualified)
			}
			if res.Qualified {
				t.Errorf("Eval(%q) left the server qualified despite %v", tc.src, res.Err)
			}
			if !strings.Contains(res.Err.Error(), tc.want) {
				t.Errorf("Eval(%q) error = %q, want substring %q", tc.src, res.Err, tc.want)
			}
		})
	}
}
