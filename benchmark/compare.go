package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// loadMedians reads an -out file and returns, per workload and end-to-end
// metric, the median over the file's untraced runs. A run that was not
// correct measured a failure, not the program, and is left out.
func loadMedians(path string) (map[string]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	values := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace || !rec.Correct {
			continue
		}
		if values[rec.Workload] == nil {
			values[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Metrics {
			values[rec.Workload][name] = append(values[rec.Workload][name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	medians := make(map[string]map[string]float64)
	for w, ms := range values {
		medians[w] = make(map[string]float64)
		for name, vs := range ms {
			medians[w][name] = median(vs)
		}
	}
	return medians, nil
}

// worseBy is how much worse b is than a as a share of a, given the
// metric's direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse the second is and the declared bound. It returns 1 when
// a gap is beyond its bound or a value is missing; see compareMedians.
func compareFiles(pathA, pathB string, bothWays bool) int {
	a, err := loadMedians(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadMedians(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareMedians(os.Stdout, a, b, bothWays)
}

// compareMedians flags every metric on which b is worse than a by more
// than the bound — parent against change. With bothWays it also flags b
// better by more than the bound: two sets of runs of one commit agree only
// if neither side is beyond the bound of the other. A workload or metric
// that either side lacks (no correct run of it) is flagged too: a
// comparison that skipped it would pass by saying nothing.
func compareMedians(out io.Writer, a, b map[string]map[string]float64, bothWays bool) int {
	status := 0
	fmt.Fprintf(out, "%-16s %-16s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "b worse", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, okA := a[w.name][d.Name]
			vb, okB := b[w.name][d.Name]
			if !okA || !okB || va == 0 || vb == 0 {
				fmt.Fprintf(out, "%-16s %-16s %14v %14v  MISSING\n", w.name, d.Name, present(va, okA), present(vb, okB))
				status = 1
				continue
			}
			gap := worseBy(d, va, vb)
			flag := ""
			if gap > d.Bound || bothWays && worseBy(d, vb, va) > d.Bound {
				flag = "  BEYOND BOUND"
				status = 1
			}
			fmt.Fprintf(out, "%-16s %-16s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", w.name, d.Name, va, vb, 100*gap, 100*d.Bound, flag)
		}
	}
	return status
}

func present(v float64, ok bool) any {
	if !ok {
		return "-"
	}
	return v
}
