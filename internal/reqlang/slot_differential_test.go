package reqlang

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The slot evaluator must be indistinguishable from the map-backed
// one it replaced (kept in mapeval_test.go): same qualification, same
// failed line, same score, same host lists in the same order, same
// error text — on the negative tables, on the planner fuzz probes,
// and on generated programs that mix temporaries, user parameters,
// string literals and temporaries, and records that define only some
// variables.

// sameResult compares two Results field by field; NaN scores compare
// equal to each other and errors compare by message.
func sameResult(a, b Result) error {
	sameScore := a.Score == b.Score || math.IsNaN(a.Score) && math.IsNaN(b.Score)
	switch {
	case a.Qualified != b.Qualified, a.FailedLine != b.FailedLine, a.HasScore != b.HasScore, !sameScore:
	case fmt.Sprint(a.Denied) != fmt.Sprint(b.Denied), fmt.Sprint(a.Preferred) != fmt.Sprint(b.Preferred):
	case (a.Err == nil) != (b.Err == nil), a.Err != nil && a.Err.Error() != b.Err.Error():
	default:
		return nil
	}
	return fmt.Errorf("slot %+v\nmap  %+v", a, b)
}

// checkAgainstReference evaluates prog from every statement index
// against the map evaluator, binding the slots both ways the package
// offers: through the MapEnv adapter, and directly by slot number on
// a reused Env as the selector does — which, like the selector's old
// map fill, binds only the variables MentionedVars lists.
func checkAgainstReference(t *testing.T, prog *Program, reused *Env, params map[string]float64) {
	t.Helper()
	mentioned := map[string]float64{}
	for _, name := range prog.MentionedVars() {
		if v, ok := params[name]; ok {
			mentioned[name] = v
		}
	}
	for from := 0; from <= len(prog.Stmts); from++ {
		want := refEvalFrom(prog, params, from)
		if err := sameResult(prog.EvalFrom(prog.MapEnv(params), from), want); err != nil {
			t.Fatalf("%q from %d, params %v (MapEnv):\n%v", prog.Source(), from, params, err)
		}
		reused.Reset(1)
		for slot, name := range prog.MentionedVars() {
			if v, ok := params[name]; ok {
				reused.Col(slot)[0] = v
			}
		}
		want = refEvalFrom(prog, mentioned, from)
		if err := sameResult(prog.EvalFrom(reused, from), want); err != nil {
			t.Fatalf("%q from %d, params %v (reused slots):\n%v", prog.Source(), from, params, err)
		}
	}
	checkLanes(t, prog, laneVariants(params))
}

// oddFloats are numbers a record may bind that the interpreter must
// never read as anything else: NaNs (the default one, quiet and
// signalling payloads), infinities, and the small integers and raw bit
// patterns a lane holding a string's index carries.
var oddFloats = []float64{
	math.NaN(), math.Float64frombits(0xFFF8000000000000), math.Float64frombits(0x7FF0000000000001),
	math.Float64frombits(0xFFF4000000000000), math.Float64frombits(0x7FF7FFFFFFFFFFFF),
	math.Inf(1), math.Inf(-1), 0, 1, 2, 3, math.Float64frombits(1), math.Float64frombits(2),
}

// laneVariants derives from one record a batch of records that differ
// in what they define. The first four define the same variables — the
// record, every number negated (sqrt, log), every number zero (a
// divisor), the record again — so a prefix of the batch runs the float
// loops with lanes stopping on errors beside lanes that do not; then
// every other variable missing, nothing at all, and every variable
// bound to one of oddFloats.
func laneVariants(params map[string]float64) []map[string]float64 {
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	zero, neg, half, odd := map[string]float64{}, map[string]float64{}, map[string]float64{}, map[string]float64{}
	for i, name := range names {
		zero[name], neg[name] = 0, -params[name]
		if i%2 == 0 {
			half[name] = params[name]
		}
		odd[name] = oddFloats[(i+len(names))%len(oddFloats)]
	}
	return []map[string]float64{params, neg, zero, params, half, {}, odd}
}

// checkLanes evaluates the records as one batch, from every statement
// index, in the given order, reversed, and as every prefix: each lane
// must read exactly what the map evaluator makes of its record alone,
// whoever its neighbours are and whichever of them stop on an error.
func checkLanes(t *testing.T, prog *Program, recs []map[string]float64) {
	t.Helper()
	reversed := append([]map[string]float64(nil), recs...)
	slices.Reverse(reversed)
	env := &Env{}
	env.Bind(prog, len(recs))
	for _, order := range [][]map[string]float64{recs, reversed} {
		for n := 1; n <= len(order); n++ {
			for from := 0; from <= len(prog.Stmts); from++ {
				env.bindRecs(order[:n])
				prog.Run(env, from)
				for l := range order[:n] {
					want := refEvalFrom(prog, order[l], from)
					got := env.Result(l)
					if err := sameResult(got, want); err != nil {
						t.Fatalf("%q from %d, lane %d of %d holding %v:\n%v", prog.Source(), from, l, n, order[l], err)
					}
					if score, scored := env.Score(l); env.Qualified(l) != got.Qualified || scored != got.HasScore || scored && score != got.Score && score == score {
						t.Fatalf("%q from %d, lane %d: accessors disagree with Result %+v", prog.Source(), from, l, got)
					}
				}
			}
		}
	}
}

// TestBoundNumberStaysANumberWhateverItsBits binds through Col every
// float a status report can put in a column — NaNs with any payload,
// infinities — and the numbers a lane holding a string's index carries,
// to programs that compare them with strings, negate them, pass them to
// abs and store them: each lane must read what the reference, which
// sees a number, reads. The tag, not the bits, says what a lane holds.
func TestBoundNumberStaysANumberWhateverItsBits(t *testing.T) {
	for _, src := range []string{
		`x == "a" || x == ""`, `x != "a"`, `x && "a"`, `-x == "a"`, `abs(x) != ""`, "-x\nabs(x)",
		"t = x\nt == \"a\"\nt", "t = -x\nt != \"\"\nu = abs(t)\nu",
		"user_denied_host1 = \"a\"\nuser_denied_host1 == x", "user_preferred_host1 = x", "user_preferred_host1 = -x",
	} {
		prog := mustParse(t, src)
		vals := append([]float64(nil), oddFloats...)
		for i := range prog.strs {
			vals = append(vals, float64(i), math.Float64frombits(uint64(i)))
		}
		// One more lane leaves x undefined, so every instruction on x
		// runs lane by lane and reads the tags.
		env := &Env{}
		env.Bind(prog, len(vals)+1)
		env.Reset(len(vals) + 1)
		x := slices.IndexFunc(prog.vars, func(v slot) bool { return v.name == "x" })
		copy(env.Col(x), vals)
		env.Undef(x, len(vals))
		prog.Run(env, 0)
		for l, v := range vals {
			if err := sameResult(env.Result(l), refEvalFrom(prog, map[string]float64{"x": v}, 0)); err != nil {
				t.Errorf("%q, x = %g (bits %#x):\n%v", src, v, math.Float64bits(v), err)
			}
		}
		if err := sameResult(env.Result(len(vals)), refEvalFrom(prog, nil, 0)); err != nil {
			t.Errorf("%q, x undefined:\n%v", src, err)
		}
	}
}

// negativeSources is the table of programs that end badly or oddly:
// the inputs of TestSlotEnvMatchesMapEnvOnNegativeTable and the seed
// corpus of FuzzBatchEval.
var negativeSources = []string{
	// TestEvalHardErrors.
	"nosuchfn(1) > 0", "floor(1, 2) > 0", "x + 1",
	// TestBuiltinErrors and the assignment rules.
	"v = sqrt(-1)", "v = log(0)", "v = log10(-5)", "v = sin(1, 2)", "v = pow(2)",
	"pi = 3", "e", "host_cpu_free = 1\nhost_cpu_free > 0.5", "machine_type = 4\nmachine_type == \"i386\"",
	// TestOperatorPrecedenceEdges.
	"2^3^2", "-2^2", "1 == 1 || 1 == 2 && 2 == 3", "3 < 2 < 1",
	// Undefined variables: logical statements go false, others abort.
	"host_missing < 2\nhost_cpu_free > 0.1", "host_missing * 2\nhost_cpu_free > 0.1",
	// Temporaries, shadowing and score statements.
	"score = host_cpu_bogomips * host_cpu_free\nscore", "t = 1\nt = t + 1\nt == 2", "(x = 3)\nx",
	"pow(-1, 0.5)", "exp(1000) - exp(1000)", "host_cpu_free / 0 > 1",
	// User parameters: bare words, strings, slot order past nine,
	// reads of unset slots, numbers refused.
	"user_denied_host1 = telesto", "telesto = 5\nuser_denied_host1 = telesto",
	"user_preferred_host2 = \"b\"\nuser_preferred_host10 = \"a\"\nuser_preferred_host1 = c.d.e",
	"user_denied_host1 == \"\"", "user_denied_host1 = 3", "user_preferred_host1 = host_cpu_free",
	"user_denied_host1 = \"\"\nuser_denied_host2 = x",
	"machine_type == \"I386\"", "machine_type < 5", "-machine_type",
	// Evaluation order inside one statement: an undefined read ends a
	// logical statement before or after an assignment in it; a read
	// precedes the assignment to the same name; a built-in judges
	// each argument before the next is evaluated; checks on the
	// target come before the right-hand side.
	"x > (y = 3)\ny", "(y = 3) > x\ny", "x + (x = 5)\nx", "t = 1\n(t + (t = 2)) * 10\nt",
	"pow(\"a\", 1 / 0)", "pow(1 / 0, \"a\")", "nosuchfn(1 / 0)", "floor(1 / 0, 2)", "(pi = 1 / 0) + x",
	"x = sqrt(-1)", "host_cpu_free / x > 1\nt = 2\nt", "1 / host_cpu_free\nt = x\nt * 2",
	// Strings as operands of every operator class.
	"-\"a\"", "\"a\" < 1", "\"a\" == \"A\"", "\"a\" && 0", "\"\" || 0", "machine_type != x", "sqrt(machine_type)",
	// The bare-word rule takes the first undefined name of the whole
	// right-hand side, unless a hard error comes first; inner
	// user-parameter assignments claim their own.
	"user_denied_host1 = x + 1", "user_denied_host1 = 1 + x", "user_denied_host1 = sqrt(-1) + x", "user_denied_host1 = x + sqrt(-1)",
	"user_denied_host1 = (user_denied_host2 = x)", "user_denied_host1 = x + (user_denied_host2 = telesto)",
	"user_denied_host1 = (t = x)\nt", "user_denied_host1 == (user_denied_host1 = \"h\")", "user_preferred_host1 = \"a\"\nuser_preferred_host1 = \"\"",
	// No record binds a string: strings are literals, NETADDRs, hosts
	// and the temporaries they are stored in, which some lanes assign
	// while others leave the statement first or hold the record's
	// number. Numbers compared with strings, negated, passed to abs and
	// stored stay numbers whatever their bits.
	"t = \"a\"\nt == \"A\"", "x > 0 && (t = \"a\") == \"A\"\nt", "x > 0 && (t = \"b\") == \"B\"\nt == \"b\" || t == 1",
	"10.0.0.7 == \"10.0.0.7\" && c.d.e != \"C.D.E\"", "t = \"\"\nt || 0", "user_denied_host1 = \"a\"\nuser_denied_host1 == \"A\"",
	"x == \"a\" || x != \"\"", "-x == \"\"\nabs(x) != \"a\"", "t = x\nt == \"\"\nt", "user_denied_host1 = (t = \"h\")\nt != x",
}

func TestSlotEnvMatchesMapEnvOnNegativeTable(t *testing.T) {
	envs := []map[string]float64{
		nil,
		{"host_cpu_free": 0.9, "host_cpu_bogomips": 4000},
		{"host_cpu_free": 0.2, "host_missing": 1, "x": 7, "telesto": 1},
		{"host_cpu_free": math.NaN(), "machine_type": 1, "x": 2},
	}
	for _, src := range negativeSources {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		reused := prog.NewEnv()
		for _, params := range envs {
			checkAgainstReference(t, prog, reused, params)
		}
	}
}

// strLit draws a string operand: a quoted literal, the empty one among
// them, or a NETADDR.
func strLit(r *rand.Rand) string {
	return []string{`"a"`, `"A"`, `""`, `"titan-x"`, "10.0.0.7", "c.d.e"}[r.Intn(6)]
}

// genExpr builds a random expression string from a grammar sample.
func genExpr(r *rand.Rand, depth int) string {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(5) {
		case 0:
			return []string{"1", "2.5", "0.9", "42"}[r.Intn(4)]
		case 1:
			return []string{"a", "b", "host_cpu_free", "x1", "t"}[r.Intn(5)]
		case 4:
			return strLit(r)
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

// genStmt draws one statement: a generated expression, or one of the
// statement shapes genExpr never produces.
func genStmt(r *rand.Rand) string {
	switch r.Intn(9) {
	case 0:
		return []string{"t", "a", "x1", "machine_type"}[r.Intn(4)] + " = " + genExpr(r, 2)
	case 1:
		return fmt.Sprintf("user_%s_host%d = %s", []string{"denied", "preferred"}[r.Intn(2)], 1+r.Intn(12),
			[]string{"telesto", "\"titan-x\"", "10.0.0.7", "a", "3"}[r.Intn(5)])
	case 2:
		return "t"
	case 3:
		return "machine_type == \"i386\""
	case 4:
		// A string temporary assigned in a logical statement that lanes
		// missing x1 leave first: t holds a string in some lanes and
		// nothing, or the record's number, in others.
		return "x1 > 0 && (t = " + strLit(r) + ") == " + strLit(r)
	}
	return genExpr(r, 3)
}

func TestSlotEnvMatchesMapEnvOnGeneratedPrograms(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := ""
		for n := 1 + r.Intn(4); n > 0; n-- {
			src += genStmt(r) + "\n"
		}
		prog, err := Parse(src)
		if err != nil {
			continue // the generator made something illegal; fine
		}
		reused := prog.NewEnv()
		for trial := 0; trial < 3; trial++ {
			// Each record defines a random subset of the variables.
			params := map[string]float64{}
			for _, name := range []string{"a", "b", "host_cpu_free", "x1", "t"} {
				if r.Intn(3) > 0 {
					params[name] = []float64{-1, 0, 0.5, 1, 2, 3}[r.Intn(6)]
				}
			}
			checkAgainstReference(t, prog, reused, params)
		}
	}
}
