package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the harness made into a layer: the name of the
// layer function, when it started and ended (ns since the tracer was
// made), the span that caused it (its index among the op's spans, -1 for
// the op's root) and the op it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     uint64 `json:"op"`
}

// spanAgg sums one span name over a pass.
type spanAgg struct {
	count  uint64
	selfNS int64
}

// keepSpans bounds the raw spans held for -trace-out; the per-name
// totals cover every op regardless.
const keepSpans = 200_000

// tracer records spans around the benchmark's own calls into each module.
// It is used from the generator goroutine only. All methods accept a nil
// receiver, which is tracing off.
type tracer struct {
	t0      time.Time
	spans   []span
	stack   []int32
	opStart int
	op      uint64
	agg     map[string]*spanAgg
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: make(map[string]*spanAgg), spans: make([]span, 0, keepSpans+64)}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1] - int32(t.opStart)
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id (and anything left open inside it). When it was the
// op's root, the op's spans are folded into the per-name totals.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.spans[top].End = now
		if top == id {
			break
		}
	}
	if len(t.stack) > 0 {
		return
	}
	op := t.spans[t.opStart:]
	for i, self := range selfTimes(op) {
		a := t.agg[op[i].Name]
		if a == nil {
			a = &spanAgg{}
			t.agg[op[i].Name] = a
		}
		a.count++
		a.selfNS += self
	}
	if len(t.spans) > keepSpans {
		t.spans = t.spans[:t.opStart]
	}
	t.opStart = len(t.spans)
	t.op++
}

// selfTimes returns, for each span of one op (Parent indexes into the
// same slice), its duration minus the part of it its children cover.
// Children may overlap each other; covered time counts once.
func selfTimes(op []span) []int64 {
	self := make([]int64, len(op))
	type iv struct{ lo, hi int64 }
	kids := make(map[int32][]iv)
	for i := range op {
		self[i] = op[i].End - op[i].Start
		if p := op[i].Parent; p >= 0 {
			kids[p] = append(kids[p], iv{op[i].Start, op[i].End})
		}
	}
	for p, ivs := range kids {
		// Spans are appended in begin order, so ivs is sorted by lo.
		var covered, hi int64
		hi = op[p].Start
		for _, v := range ivs {
			lo := max(v.lo, hi)
			if end := min(v.hi, op[p].End); end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[p] -= covered
	}
	return self
}

// selfUS reports the mean self time per op of one span name, in µs,
// given how many ops the pass ran.
func (t *tracer) selfUS(name string, ops uint64) float64 {
	if t == nil || ops == 0 {
		return 0
	}
	if a := t.agg[name]; a != nil {
		return float64(a.selfNS) / 1e3 / float64(ops)
	}
	return 0
}

// writeTo dumps the retained raw spans as JSON.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
