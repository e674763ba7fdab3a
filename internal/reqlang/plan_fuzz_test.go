package reqlang

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzPlanExtract feeds arbitrary requirement sources through
// parse→plan and checks the planner's two contracts on every program
// it claims to resolve:
//
//  1. Plan never panics, whatever the parser accepts.
//  2. Soundness against probe environments: when a probe satisfies
//     every extracted constraint, evaluating the residual program from
//     Plan.Prefix yields exactly the full evaluation's Result; when it
//     violates any constraint, the full evaluation is unqualified. A
//     violation of either means the index would return wrong servers.
func FuzzPlanExtract(f *testing.F) {
	seeds := []string{
		"host_cpu_free > 0.5\n",
		"host_system_load1 < 2.0\nhost_memory_free > 10\n",
		"(host_cpu_free >= 0.5) && (host_security_level == 3)\n",
		"2.0 > host_system_load1\nhost_cpu_free * 100\n",
		"host_cpu_free > 0.5 || host_system_load1 < 1\n",
		"x = host_system_load1 * 2\nx < 4\n",
		"user_denied_host1 = \"bad\"\nhost_cpu_free > 0.1\n",
		"host_system_load1 != 2\n",
		"sqrt(host_cpu_free) > 0.5\n",
		"host_system_load1 > -1.5 && host_system_load5 <= 1e3\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		plan := prog.Plan(fuzzIndexable)
		if plan == nil {
			return
		}
		if plan.Prefix <= 0 || plan.Prefix > len(prog.Stmts) || len(plan.Cons) == 0 {
			t.Fatalf("malformed plan %+v for %q", plan, src)
		}
		// Build probe environments: one straddling each constraint's
		// boundary from both sides, plus extremes.
		probes := []map[string]float64{}
		for _, c := range plan.Cons {
			for _, delta := range []float64{-1, -0.25, 0, 0.25, 1} {
				probes = append(probes, probeEnv(plan, c.Var, c.Val+delta))
			}
		}
		probes = append(probes, probeEnv(plan, "", 0))
		for _, params := range probes {
			checkProbe(t, src, prog, plan, params)
		}
	})
}

// fuzzIndexable mirrors the selector's policy shape: status-style
// host_* names index, everything else does not.
func fuzzIndexable(name string) bool {
	return strings.HasPrefix(name, "host_")
}

// probeEnv binds every constrained variable to its constraint value,
// then overrides one variable with the probe value.
func probeEnv(plan *Plan, override string, v float64) map[string]float64 {
	params := make(map[string]float64)
	for _, c := range plan.Cons {
		params[c.Var] = c.Val
	}
	if override != "" {
		params[override] = v
	}
	return params
}

func checkProbe(t *testing.T, src string, prog *Program, plan *Plan, params map[string]float64) {
	t.Helper()
	full := prog.Eval(prog.MapEnv(params))
	// The slot evaluator agrees with the map-backed reference on every
	// probe, before the planner's own contracts are checked.
	if err := sameResult(full, refEvalFrom(prog, params, 0)); err != nil {
		t.Fatalf("source %q env %v: slot evaluation diverged from the map reference:\n%v", src, params, err)
	}
	checkLanes(t, prog, laneVariants(params))
	pass := true
	for _, c := range plan.Cons {
		v, ok := params[c.Var]
		if !ok || !matchCons(c, v) {
			pass = false
			break
		}
	}
	if pass {
		resid := prog.EvalFrom(prog.MapEnv(params), plan.Prefix)
		if !reflect.DeepEqual(resid, full) {
			t.Fatalf("source %q env %v:\nresidual from %d: %+v\nfull:            %+v",
				src, params, plan.Prefix, resid, full)
		}
	} else if full.Qualified {
		t.Fatalf("source %q env %v: constraints reject but full eval qualifies", src, params)
	}
}

// FuzzBatchEval feeds arbitrary requirement sources and lane bindings
// through the batch evaluator: whatever the parser accepts, and however
// the lanes of one batch differ in what they define — nothing, or a
// number: zero, negative, NaN, infinite, or raw float64 bits, as a
// status report's binary codec passes them on — every lane must read
// what the map evaluator makes of its record alone, from every
// statement index, in either lane order (checkLanes). One byte of
// bindings decides one variable of one lane (raw bits take the eight
// after it too); lanes past the bytes define nothing.
func FuzzBatchEval(f *testing.F) {
	for i, src := range negativeSources {
		f.Add(src, []byte{byte(i), byte(7 * i), 1, 5, 9, 2, 0, 6, 13, 1, 1, 1, byte(i >> 1)})
	}
	nums := append([]float64{-1, 0.5}, oddFloats...)
	f.Fuzz(func(t *testing.T, src string, bindings []byte) {
		prog, err := Parse(src)
		if err != nil || len(prog.Stmts) > 8 || len(prog.vars) > 8 {
			return
		}
		recs := make([]map[string]float64, 5)
		for l := range recs {
			recs[l] = map[string]float64{}
			for slot, v := range prog.vars {
				if at := l*len(prog.vars) + slot; at < len(bindings) {
					switch b := bindings[at]; b % 4 {
					case 1:
						recs[l][v.name] = nums[int(b/4)%len(nums)]
					case 2:
						recs[l][v.name] = float64(b) - 128
					case 3:
						var raw [8]byte
						copy(raw[:], bindings[at+1:])
						recs[l][v.name] = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
					}
				}
			}
		}
		checkLanes(t, prog, recs)
	})
}
