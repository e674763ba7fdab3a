// Package experiments regenerates every table and figure in the
// thesis's measurement and evaluation chapters (Chapters 3–5). Each
// experiment is a named function returning a Table — the same rows
// the paper prints — runnable individually through cmd/smartbench or
// in bulk. The EXPERIMENTS.md file at the repository root records
// paper-versus-measured values for each one.
//
// Two fidelity levels exist: the default sizes make trends obvious
// and finish in seconds; Quick mode shrinks sweeps and transfers for
// use inside go test and testing.B loops.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// sleep is the package's injected pause, shared by the experiment
// files for settle waits. Tests may swap it; keeping it a variable
// (initialised to time.Sleep as a value, never called raw) is the
// project's sleepfree idiom.
var sleep = time.Sleep

// Table is one regenerated table or figure, rendered as rows.
type Table struct {
	ID      string // "table5.3", "fig3.7", …
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render prints the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options tunes a run.
type Options struct {
	// Quick shrinks workloads for test/bench use.
	Quick bool
	// Seed makes the run reproducible.
	Seed int64
}

// Fn runs one experiment.
type Fn func(Options) (*Table, error)

// registry maps experiment IDs to implementations: the whole set, in
// one literal, so a duplicate ID does not compile. A figure that plots
// a table's data is that table's function under the figure's ID
// (alias).
var registry = map[string]Fn{
	"fig3.3":   func(o Options) (*Table, error) { return rttSweepFig(o, 1500, "fig3.3") },
	"fig3.4":   func(o Options) (*Table, error) { return rttSweepFig(o, 1000, "fig3.4") },
	"fig3.5":   func(o Options) (*Table, error) { return rttSweepFig(o, 500, "fig3.5") },
	"fig3.6":   fig36,
	"table3.3": table33,
	"fig3.7":   alias("fig3.7", table33, "Fig 3.7 is the bar-chart rendering of Table 3.3"),
	"table3.4": table34,

	"table4.1": table41,
	"table5.2": table52,

	"fig5.2":   fig52,
	"table5.3": func(o Options) (*Table, error) { return matrixComparison(o, matrix23) },
	"table5.4": func(o Options) (*Table, error) { return matrixComparison(o, matrix44) },
	"table5.5": func(o Options) (*Table, error) { return matrixComparison(o, matrix66) },
	"table5.6": func(o Options) (*Table, error) { return matrixComparison(o, matrix44load) },

	"fig5.3":   fig53,
	"table5.7": table57,
	"table5.8": table58,
	"table5.9": table59,
	"fig5.4":   alias("fig5.4", table57, "Fig 5.4 plots the Table 5.7 throughputs"),
	"fig5.5":   alias("fig5.5", table58, "Fig 5.5 plots the Table 5.8 throughputs"),
	"fig5.6":   alias("fig5.6", table59, "Fig 5.6 plots the Table 5.9 throughputs"),

	"appendixA": appendixA,

	"ablation.probesize":  ablationProbeSize,
	"ablation.encoding":   ablationEncoding,
	"ablation.transport":  ablationTransport,
	"ablation.reporting":  ablationReporting,
	"ablation.sequential": ablationSequential,

	"chaos.loss": chaosLoss,
}

func table57(o Options) (*Table, error) { return massdComparison(o, massd1v1) }
func table58(o Options) (*Table, error) { return massdComparison(o, massd2v2) }
func table59(o Options) (*Table, error) { return massdComparison(o, massd3v3) }

// alias runs table under a figure's ID and caption.
func alias(figID string, table Fn, caption string) Fn {
	return func(o Options) (*Table, error) {
		t, err := table(o)
		if err != nil {
			return nil, err
		}
		t.ID = figID
		t.Notes = append(t.Notes, caption)
		return t, nil
	}
}

// IDs lists all registered experiments in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, opts Options) (*Table, error) {
	fn, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return fn(opts)
}

// formatting helpers shared by the experiment files.

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func mbps(bitsPerSec float64) string { return fmt.Sprintf("%.2f", bitsPerSec/1e6) }

func pct(delta, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", delta/base*100)
}
