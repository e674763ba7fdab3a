package reqlang

import (
	"reflect"
	"strings"
	"testing"
)

// testIndexable mimics the selector's policy for tests: host_* status
// variables are indexable, everything else is not.
func testIndexable(name string) bool {
	return strings.HasPrefix(name, "host_")
}

func TestPlanExtraction(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		cons   []Constraint
		prefix int
	}{
		{
			name:   "simple less-than",
			src:    "host_system_load1 < 2.0\n",
			cons:   []Constraint{{Var: "host_system_load1", Op: CmpLT, Val: 2, Line: 1}},
			prefix: 1,
		},
		{
			name:   "literal on the left flips",
			src:    "2.0 > host_system_load1\n",
			cons:   []Constraint{{Var: "host_system_load1", Op: CmpLT, Val: 2, Line: 1}},
			prefix: 1,
		},
		{
			name: "conjunction splits into two constraints",
			src:  "(host_cpu_free >= 0.5) && (host_memory_free > 10)\n",
			cons: []Constraint{
				{Var: "host_cpu_free", Op: CmpGE, Val: 0.5, Line: 1},
				{Var: "host_memory_free", Op: CmpGT, Val: 10, Line: 1},
			},
			prefix: 1,
		},
		{
			name: "multiple statements extend the prefix",
			src:  "host_cpu_free > 0.9\nhost_system_load5 <= 1\n",
			cons: []Constraint{
				{Var: "host_cpu_free", Op: CmpGT, Val: 0.9, Line: 1},
				{Var: "host_system_load5", Op: CmpLE, Val: 1, Line: 2},
			},
			prefix: 2,
		},
		{
			name:   "negated literal",
			src:    "host_system_load1 > -1.5\n",
			cons:   []Constraint{{Var: "host_system_load1", Op: CmpGT, Val: -1.5, Line: 1}},
			prefix: 1,
		},
		{
			name:   "equality",
			src:    "host_security_level == 3\n",
			cons:   []Constraint{{Var: "host_security_level", Op: CmpEQ, Val: 3, Line: 1}},
			prefix: 1,
		},
		{
			name: "unextractable second statement ends the prefix",
			src:  "host_cpu_free > 0.5\nhost_system_load1 < host_system_load5\n",
			cons: []Constraint{
				{Var: "host_cpu_free", Op: CmpGT, Val: 0.5, Line: 1},
			},
			prefix: 1,
		},
		{
			name: "score statement ends the prefix",
			src:  "host_cpu_free > 0.5\nhost_cpu_free * 100\n",
			cons: []Constraint{
				{Var: "host_cpu_free", Op: CmpGT, Val: 0.5, Line: 1},
			},
			prefix: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := mustParse(t, tc.src).Plan(testIndexable)
			if plan == nil {
				t.Fatalf("Plan returned nil, want %v", tc.cons)
			}
			if plan.Prefix != tc.prefix {
				t.Errorf("Prefix = %d, want %d", plan.Prefix, tc.prefix)
			}
			if !reflect.DeepEqual(plan.Cons, tc.cons) {
				t.Errorf("Cons = %v, want %v", plan.Cons, tc.cons)
			}
		})
	}
}

func TestPlanRejections(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"disjunction", "host_cpu_free > 0.5 || host_system_load1 < 1\n"},
		{"not-equal", "host_system_load1 != 2\n"},
		{"arithmetic operand", "host_system_load1 + 1 < 2\n"},
		{"function call", "sqrt(host_cpu_free) > 0.5\n"},
		{"two variables", "host_system_load1 < host_system_load5\n"},
		{"two literals", "1 < 2\n"},
		{"user parameter", "user_count > 2\n"},
		{"constant operand", "pi < 4\n"},
		{"unindexable variable", "monitor_network_delay < 10\n"},
		{"leading assignment", "x = 3\nhost_cpu_free > 0.5\n"},
		{"leading score", "host_cpu_free * 2\nhost_cpu_free > 0.5\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if plan := mustParse(t, tc.src).Plan(testIndexable); plan != nil {
				t.Fatalf("Plan = %+v, want nil", plan)
			}
		})
	}
}

func TestPlanPartialConjunctionRollsBack(t *testing.T) {
	// The first conjunct is extractable, the second is not: the whole
	// statement must fail without leaking the first constraint.
	plan := mustParse(t, "host_cpu_free > 0.5 && sqrt(host_system_load1) < 1\n").Plan(testIndexable)
	if plan != nil {
		t.Fatalf("partial conjunction extracted: %+v", plan)
	}
	// And when it is the *second* statement, the prefix stops at one
	// with only the first statement's constraint.
	plan = mustParse(t, "host_memory_free > 1\nhost_cpu_free > 0.5 && sqrt(host_system_load1) < 1\n").Plan(testIndexable)
	if plan == nil || plan.Prefix != 1 || len(plan.Cons) != 1 || plan.Cons[0].Var != "host_memory_free" {
		t.Fatalf("rollback failed: %+v", plan)
	}
}

func TestPlanNilIndexable(t *testing.T) {
	if plan := mustParse(t, "host_cpu_free > 0.5\n").Plan(nil); plan != nil {
		t.Fatalf("Plan(nil) = %+v, want nil", plan)
	}
}

// TestPlanResidualEquivalence is the deterministic core of the fuzz
// property: for envs on both sides of each constraint, satisfying all
// constraints makes EvalFrom(prefix) agree with the full Eval, and
// violating any leaves the program unqualified.
func TestPlanResidualEquivalence(t *testing.T) {
	src := "host_cpu_free > 0.5\nhost_system_load1 <= 2\nhost_cpu_free * 100\n"
	prog := mustParse(t, src)
	plan := prog.Plan(testIndexable)
	if plan == nil || plan.Prefix != 2 {
		t.Fatalf("unexpected plan: %+v", plan)
	}
	envs := []map[string]float64{
		{"host_cpu_free": 0.9, "host_system_load1": 1},
		{"host_cpu_free": 0.9, "host_system_load1": 3},
		{"host_cpu_free": 0.1, "host_system_load1": 1},
		{"host_cpu_free": 0.5, "host_system_load1": 2},
	}
	for _, params := range envs {
		full := prog.Eval(prog.MapEnv(params))
		pass := true
		for _, c := range plan.Cons {
			v, ok := params[c.Var]
			if !ok || !matchCons(c, v) {
				pass = false
			}
		}
		if pass {
			resid := prog.EvalFrom(prog.MapEnv(params), plan.Prefix)
			if !reflect.DeepEqual(resid, full) {
				t.Errorf("env %v: residual %+v != full %+v", params, resid, full)
			}
		} else if full.Qualified {
			t.Errorf("env %v: constraints fail but full eval qualified", params)
		}
	}
}

func matchCons(c Constraint, v float64) bool {
	switch c.Op {
	case CmpLT:
		return v < c.Val
	case CmpLE:
		return v <= c.Val
	case CmpGT:
		return v > c.Val
	case CmpGE:
		return v >= c.Val
	case CmpEQ:
		return v == c.Val
	}
	return false
}
