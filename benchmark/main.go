// Command benchmark is the repo's benchmark: four closed-loop workloads
// over the real pipeline on loopback, five end-to-end metrics measured
// with tracing off, and a per-layer budget taken from outside, by timing
// calls into each module's exported functions. See README.md.
//
//	bash benchmark/run.sh --workload storm_lan11 --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 1 --out a.jsonl          # every workload, both passes
//	bash benchmark/run.sh --compare parent.jsonl change.jsonl
//	bash benchmark/run.sh --agree a.jsonl b.jsonl         # two sets of one commit
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"smartsock/internal/obs"
)

// metricDef declares one reported metric. Bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is the same five on every workload, measured with tracing off
// on gatedProcs Ps. The two timings are in reference seconds (hostref.go):
// wall-clock time corrected by the host's speed as sampled between the
// ops, because on the shared box the driver uses the wall-clock rate of
// one commit spread 27–45 % over ten runs. ops_per_ref_s is the median of
// the windows' rates so corrected; in a closed loop with one client on one
// P throughput is also 1 ÷ mean latency and 1 ÷ CPU time per op, so it is
// the one timing figure of the op stream the gate needs. The issue's other
// three (op_p50_us, op_p90_us, cpu_us_per_op) are reported per layer, on
// the wall. setup_s is the median of the set-ups' reference seconds and has
// the largest bound, as the builder's contract asks. The allocation and
// heap metrics repeat to four digits and are the fine instruments.
// README.md has the gaps and spreads behind each bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_ref_s", "1/s", "higher", 0.20},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "KB", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.05},
}

var perLayer = []metricDef{
	{Name: "smartsock.request_us", Unit: "us", Better: "lower"},
	{Name: "smartsock.dial_us", Unit: "us", Better: "lower"},
	{Name: "smartsock.alloc_kb_per_request", Unit: "KB", Better: "lower"},
	{Name: "smartsock.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "smartsock.op_p90_us", Unit: "us", Better: "lower"},
	{Name: "smartsock.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "wizard.answer_ns", Unit: "ns", Better: "lower"},
	{Name: "wizard.answer_allocs", Unit: "count", Better: "lower"},
	{Name: "wizard.bare_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "wizard.handled", Unit: "count", Better: "higher"},
	{Name: "wizard.rejected", Unit: "count", Better: "lower"},
	{Name: "wizard.reply_errors", Unit: "count", Better: "lower"},
	{Name: "netbatch.rx_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "netbatch.tx_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "netbatch.dgrams_per_syscall", Unit: "count", Better: "higher"},
	{Name: "overload.queue_delay_p50_us", Unit: "us", Better: "lower"},
	{Name: "overload.queue_delay_mean_us", Unit: "us", Better: "lower"},
	{Name: "overload.shed", Unit: "count", Better: "lower"},
	{Name: "overload.ratelimited", Unit: "count", Better: "lower"},
	{Name: "proto.marshal_request_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.parse_request_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.append_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.unmarshal_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "reqlang.cache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "reqlang.compile_ns", Unit: "ns", Better: "lower"},
	{Name: "reqlang.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.select_memo_ns", Unit: "ns", Better: "lower"},
	{Name: "core.select_ns", Unit: "ns", Better: "lower"},
	{Name: "core.select_allocs", Unit: "count", Better: "lower"},
	{Name: "core.select_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "core.evals_per_select", Unit: "count", Better: "lower"},
	{Name: "core.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "index.sync_ns", Unit: "ns", Better: "lower"},
	{Name: "index.rows_pruned_per_select", Unit: "count", Better: "higher"},
	{Name: "index.resyncs", Unit: "count", Better: "lower"},
	{Name: "store.put_sys_ns", Unit: "ns", Better: "lower"},
	{Name: "store.sysview_ns", Unit: "ns", Better: "lower"},
	{Name: "store.changed_since_ns", Unit: "ns", Better: "lower"},
	{Name: "store.apply_delta_ns", Unit: "ns", Better: "lower"},
	{Name: "status.encode_report_ns", Unit: "ns", Better: "lower"},
	{Name: "status.decode_report_ns", Unit: "ns", Better: "lower"},
	{Name: "status.append_sys_delta_ns", Unit: "ns", Better: "lower"},
	{Name: "status.parse_sys_delta_ns", Unit: "ns", Better: "lower"},
	{Name: "status.delta_bytes_per_epoch", Unit: "B", Better: "lower"},
	{Name: "monitor.ingest_us_per_report", Unit: "us", Better: "lower"},
	{Name: "monitor.dropped", Unit: "count", Better: "lower"},
	{Name: "transport.pull_us", Unit: "us", Better: "lower"},
	{Name: "transport.resyncs", Unit: "count", Better: "lower"},
	{Name: "transport.torn", Unit: "count", Better: "lower"},
	{Name: "setup.build_s", Unit: "s", Better: "lower"},
	{Name: "setup.boot_s", Unit: "s", Better: "lower"},
	{Name: "setup.warmup_s", Unit: "s", Better: "lower"},
	{Name: "process.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "process.wall_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "host.ref_trip_ns", Unit: "ns", Better: "lower"},
	{Name: "procs2.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "procs2.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "procs2.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.harness_us_per_op", Unit: "us", Better: "lower"},
}

// runSeconds is how long one run measures under the driver's contract:
// ten 2 s windows (the issue's ten 3 s ones, shrunk equally). 92 runs of
// it, each with three set-ups of 2 to 3 s, fit the contract's 3420 s
// with a sixth to spare.
const runSeconds = 20

const (
	windows      = 10   // the timed phase is this many back-to-back windows
	setupRepeats = 3    // set-ups per untraced run; setup_s is their median, as the contract asks
	maxFailShare = 1e-3 // a run with more failed ops than this is not correct
)

// gatedProcs is the GOMAXPROCS of everything the bounds rest on: one P for
// the generator and every in-process server. The issue asked for
// min(nproc, 2). Ten seeds of each, interleaved on the 2-vCPU VM the
// bounds were measured on (README.md has the table): two Ps are slower —
// every hand-off between goroutines becomes a cross-CPU wake-up;
// storm_lan11 gives 216k requests/s against 319k — and less steady where
// it matters (storm_lan11 ops_per_s spreads 12.5 % against 4.2 %,
// op_p50_us 11.0 % against 0.7 %), and allocation counts stop repeating
// (storm_lan11 allocs_per_op 1.70 ± 3.5 % against 0.5000 exactly, because
// batches are no longer always full). With one P throughput is 1 ÷ (CPU
// time per op summed over every stage), so a saving in any stage shows.
// What two Ps add — stages overlapping, parallel GC, cross-core wake-ups
// — is measured in the traced run and reported un-gated as procs2.*.
const gatedProcs = 1

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the contract's last line, plus what
// -out records beside it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	workload string
	seed     int64
	trace    bool
	note     string    // first failure, for the human-readable part
	rates    []float64 // ops/s of each window of the untraced phase
	steal    []float64 // and the share of the machine the hypervisor took away in it, in %
	tail     string    // the highest percentile the sample supports, over every window
}

// record is a result as -out writes it, one JSON object per line.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// runWorkload sets a workload up, drives it for seconds and tears it down.
// With trace off it reports the end-to-end metrics; with trace on, the
// per-layer ones from a traced pass and the layer probes.
func runWorkload(w *workload, seed int64, seconds float64, trace bool, traceOut string) (*result, error) {
	res := &result{Metrics: make(map[string]metricValue), workload: w.name, seed: seed, trace: trace}
	ref, err := newHostRef()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	leak := newLeakCheck() // with the reference's two sockets open
	repeats := setupRepeats
	if trace {
		repeats = 1 // setup_s is an end-to-end metric; the traced run only splits it
	}
	var inst instance
	var st setupTimes
	var setups, walls []float64 // in reference seconds and on the wall
	for i := 0; i < repeats; i++ {
		if inst != nil {
			if err := errors.Join(inst.close(), leak.settled()); err != nil {
				return nil, err
			}
		}
		if inst, st, err = w.setup(seed, w.sizes); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err = warmUp(inst, w.sizes.warmup, ref, &st); err != nil {
			return nil, errors.Join(fmt.Errorf("set-up: %w", err), inst.close())
		}
		setups = append(setups, st.refTotal())
		walls = append(walls, st.total().Seconds())
	}

	var runErr error
	before := inst.counters()
	total := time.Duration(seconds * float64(time.Second))
	if !trace {
		ph := drive(inst.step, &recorder{}, ref, windows, total/windows)
		heap := liveHeapMB() // with the rig still up: what the pipeline holds between requests
		res.count(ph.rec)
		res.rates, res.steal = ph.rates(), ph.steals()
		all := ph.all()
		top := topPercentile(all.n)
		res.tail = fmt.Sprintf("on the wall: %.5g ops/s, set-up %.4f s; a reference trip cost %.0f ns (%d ns on the reference host)\n"+
			"## latency over all %d verified ops: p50 %.1f us, p%g %.1f us; %.2f us of CPU per op",
			ph.medianRate(), median(walls), ph.ref().tripNS(), refTripNS,
			all.n, all.quantile(0.5)/1e3, 100*top, all.quantile(top)/1e3, ph.cpuPerOp())
		res.set(endToEnd, "setup_s", median(setups))
		res.set(endToEnd, "ops_per_ref_s", ph.medianRefRate())
		res.set(endToEnd, "allocs_per_op", ph.perOp(ph.mallocs))
		res.set(endToEnd, "alloc_kb_per_op", ph.perOp(ph.bytes)/1024)
		res.set(endToEnd, "live_heap_mb", heap)
	} else {
		runErr = res.tracedPass(inst, st, ref, seed, total, traceOut)
	}
	if runErr == nil {
		runErr = ref.err
	}
	if shed := inst.counters()["overload.shed"] - before["overload.shed"]; shed > 0 && runErr == nil {
		runErr = fmt.Errorf("the overload gate shed %.0f requests", shed)
	}
	if err := errors.Join(inst.close(), leak.settled()); err != nil && runErr == nil {
		runErr = err
	}
	res.Correct = runErr == nil && float64(res.Failed) <= maxFailShare*float64(res.Attempted)
	if runErr != nil {
		res.note = runErr.Error()
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v: no op was verified (%s)", name, m.Value, res.note)
		}
	}
	return res, nil
}

func (r *result) count(rec *recorder) {
	r.Attempted += rec.attempted
	r.Failed += rec.failed
	if r.note == "" {
		r.note = rec.firstErr
	}
}

// tracedPass is phase 3: a fifth of the time with tracing off (the base
// of trace.overhead_share), a fifth with spans on, a fifth untraced on two
// Ps, and the rest in the probes of the workload's layer groups.
func (r *result) tracedPass(inst instance, st setupTimes, ref *hostRef, seed int64, total time.Duration, traceOut string) error {
	for _, d := range perLayer {
		r.set(perLayer, d.Name, 0) // a metric no group of this workload measures stays 0
	}
	env := inst.env()
	const n = windows / 2
	win := total / 5 / n
	plain := drive(inst.step, &recorder{}, ref, n, win)
	r.count(plain.rec)
	r.rates, r.steal = plain.rates(), plain.steals()

	c0 := inst.counters()
	q0 := env.rig.gate.QueueDelay().Snapshot()
	tr := newTracer()
	traced := drive(inst.step, &recorder{tr: tr}, ref, n, win)
	r.count(traced.rec)
	c1 := inst.counters()
	q1 := env.rig.gate.QueueDelay().Snapshot()
	if traceOut != "" {
		if err := tr.writeTo(traceOut); err != nil {
			return err
		}
	}

	// The same stream on two Ps, as wizardd runs on any machine with more
	// than one core: the generator, the ingest loop and the queue worker
	// overlap, and every hand-off between them may cross CPUs. Not gated —
	// see gatedProcs.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	two := drive(inst.step, &recorder{}, ref, n, win)
	runtime.GOMAXPROCS(gatedProcs)
	r.count(two.rec)
	r.set(perLayer, "procs2.ops_per_s", two.medianRate())
	r.set(perLayer, "procs2.op_p50_us", two.all().quantile(0.5)/1e3)
	r.set(perLayer, "procs2.cpu_us_per_op", two.cpuPerOp())

	probes, probeErr := runProbes(context.Background(), env, seed, total*2/5)
	for name, v := range probes {
		r.set(perLayer, name, v)
	}
	d := func(name string) float64 { return c1[name] - c0[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, name := range []string{"wizard.handled", "wizard.rejected", "wizard.reply_errors",
		"overload.shed", "overload.ratelimited", "index.resyncs"} {
		r.set(perLayer, name, d(name))
	}
	// A workload with a status path of its own reports that one's faults
	// on top of the probes'.
	for _, name := range []string{"monitor.dropped", "transport.resyncs", "transport.torn"} {
		r.set(perLayer, name, probes[name]+d(name))
	}
	r.set(perLayer, "netbatch.dgrams_per_syscall", ratio(d("wizard.handled"), d("netbatch.rx_syscalls")))
	r.set(perLayer, "reqlang.cache_hit_ratio", ratio(d("reqlang.hits"), d("reqlang.hits")+d("reqlang.misses")))
	r.set(perLayer, "core.memo_hit_ratio", ratio(d("core.memo_hits"), d("core.selections")))
	r.set(perLayer, "core.evals_per_select", ratio(d("core.record_evals"), d("core.selections")-d("core.memo_hits")))
	r.set(perLayer, "index.rows_pruned_per_select", ratio(d("index.rows_pruned"), d("index.plans")))
	qd := histDelta(q0, q1)
	r.set(perLayer, "overload.queue_delay_p50_us", float64(qd.Quantile(0.5))/1e3)
	r.set(perLayer, "overload.queue_delay_mean_us", ratio(float64(qd.Sum), float64(qd.Count))/1e3)
	r.set(perLayer, "smartsock.op_p50_us", plain.all().quantile(0.5)/1e3)
	r.set(perLayer, "smartsock.op_p90_us", plain.all().quantile(0.9)/1e3)
	r.set(perLayer, "smartsock.op_p99_us", plain.all().quantile(0.99)/1e3)
	r.set(perLayer, "process.cpu_us_per_op", plain.cpuPerOp())
	r.set(perLayer, "process.wall_ops_per_s", plain.medianRate())
	r.set(perLayer, "host.ref_trip_ns", plain.ref().tripNS())
	r.set(perLayer, "setup.build_s", st.build.Seconds())
	r.set(perLayer, "setup.boot_s", st.boot.Seconds())
	r.set(perLayer, "setup.warmup_s", st.warmup.Seconds())
	r.set(perLayer, "trace.overhead_share", ratio(plain.medianRefRate()-traced.medianRefRate(), plain.medianRefRate()))

	// What a storm request's CPU time is spent on, as far as the harness can
	// see from outside: both ends' socket syscalls, the wizard's parse,
	// answer and marshal, and the generator's own check. The rest (queue
	// hand-off, wake-ups, the scheduler) is unattributed until spans move
	// inside the program. Only the serve group measures those stages.
	ops := traced.rec.verified()
	harness := tr.selfUS("op", ops) + tr.selfUS("harness.verify", ops)
	r.set(perLayer, "trace.harness_us_per_op", harness)
	if env.groups&probeServe != 0 {
		stages := 2*(probes["netbatch.rx_ns_per_dgram"]+probes["netbatch.tx_ns_per_dgram"])/1e3 +
			(probes["proto.parse_request_ns"]+probes["wizard.answer_ns"]+probes["proto.append_reply_ns"])/1e3 + harness
		r.set(perLayer, "trace.unattributed_share", 1-ratio(stages, traced.cpuPerOp()))
	}
	return probeErr
}

// histDelta is what a histogram observed between two snapshots.
func histDelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Bounds: b.Bounds, Counts: make([]uint64, len(b.Counts)), Sum: b.Sum - a.Sum, Count: b.Count - a.Count}
	for i := range b.Counts {
		d.Counts[i] = b.Counts[i] - a.Counts[i]
	}
	return d
}

// header records what a number from this run can be compared with.
func header(seed int64, seconds float64) string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("# smartsock benchmark: nproc=%d GOMAXPROCS=%d %s kernel=%s seed=%d seconds=%g loopback, closed loop, one generator goroutine",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, seed, seconds)
}

// print writes every metric by name with its unit, in declaration order.
func (r *result) print() {
	pass, defs := "end-to-end", endToEnd
	if r.trace {
		pass, defs = "per-layer", perLayer
	}
	fmt.Printf("## %s %s: %d ops attempted, %d failed; window rates %.5g, steal %% %.1f\n", r.workload, pass, r.Attempted, r.Failed, r.rates, r.steal)
	if r.tail != "" {
		fmt.Printf("## %s\n", r.tail)
	}
	if r.note != "" {
		fmt.Printf("## first failure: %s\n", r.note)
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("%-16s %-32s %14.4f %s\n", r.workload, d.Name, m.Value, m.Unit)
		}
	}
}

func appendRecord(path string, r *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	rec := record{r.workload, r.seed, r.trace, *r}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all: every workload, both passes")
		seed     = flag.Int64("seed", 1, "seed of the fleet and the op stream")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		out      = flag.String("out", "", "append each run's result to this file, one JSON object per line")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans to this file as JSON")
		compare  = flag.Bool("compare", false, "compare two -out files (parent, change) and exit non-zero where the second is worse beyond a bound")
		agree    = flag.Bool("agree", false, "like -compare for two sets of runs of one commit: a gap beyond a bound in either direction fails")
	)
	flag.Parse()
	if *compare || *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare|-agree a.jsonl b.jsonl")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), *agree))
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gatedProcs)
	fmt.Println(header(*seed, *seconds))

	type job struct {
		w     *workload
		trace bool
	}
	var jobs []job
	if *name == "all" {
		for i := range workloads {
			jobs = append(jobs, job{&workloads[i], false}, job{&workloads[i], true})
		}
	} else if w := workloadByName(*name); w != nil {
		jobs = []job{{w, *trace == 1}}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *name)
		os.Exit(2)
	}
	ok := true
	var last *result
	for _, j := range jobs {
		res, err := runWorkload(j.w, *seed, *seconds, j.trace, *traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", j.w.name, err)
			os.Exit(1)
		}
		res.print()
		if *out != "" {
			if err := appendRecord(*out, res); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				os.Exit(1)
			}
		}
		ok = ok && res.Correct
		last = res
	}
	if len(jobs) == 1 {
		// The contract's last line: one JSON object.
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}
