package experiments

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func quickRun(t *testing.T, id string) *Table {
	t.Helper()
	table, err := Run(id, Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(table.Rows) == 0 {
		t.Fatalf("%s: no rows", id)
	}
	return table
}

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{
		"fig3.3", "fig3.4", "fig3.5", "fig3.6", "fig3.7",
		"table3.3", "table3.4",
		"table4.1", "table5.2",
		"fig5.2", "table5.3", "table5.4", "table5.5", "table5.6",
		"fig5.3", "table5.7", "table5.8", "table5.9",
		"fig5.4", "fig5.5", "fig5.6",
		"appendixA",
		"ablation.probesize", "ablation.encoding", "ablation.transport",
		"ablation.reporting", "ablation.sequential",
		"chaos.loss",
	}
	sort.Strings(want)
	if have := IDs(); !reflect.DeepEqual(have, want) {
		t.Errorf("registry holds %v, want exactly %v", have, want)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("table9.99", Options{}); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "hello")
	out := tb.Render()
	for _, want := range []string{"== x: demo ==", "a", "bb", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

// noteContains asserts one of the table's notes mentions a substring.
func noteContains(t *testing.T, tb *Table, substr string) {
	t.Helper()
	for _, n := range tb.Notes {
		if strings.Contains(n, substr) {
			return
		}
	}
	t.Errorf("%s: no note contains %q (notes: %v)", tb.ID, substr, tb.Notes)
}

func TestFig33SlopeBreak(t *testing.T) {
	tb := quickRun(t, "fig3.3")
	for _, n := range tb.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("fig3.3 failed to show the MTU slope break: %s", n)
		}
	}
	noteContains(t, tb, "knee")
}

func TestTable33Shape(t *testing.T) {
	// The paper's central measurement claim: sub-MTU probe pairs
	// under-estimate by roughly 4–5× (Speed_init, Eq. 3.7); the
	// 1600~2900 pair comes closest to the truth.
	tb := quickRun(t, "table3.3")
	avg := map[string]float64{}
	for _, row := range tb.Rows {
		if row[3] == "" {
			continue
		}
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad avg cell %q", row[3])
		}
		avg[row[0]] = v
	}
	subMTU := avg["100~500"]
	best := avg["1600~2900"]
	if subMTU <= 0 || best <= 0 {
		t.Fatalf("missing rows: %v", avg)
	}
	if ratio := best / subMTU; ratio < 3 || ratio > 7 {
		t.Errorf("best/subMTU ratio = %.2f, paper shows ≈4.6", ratio)
	}
	for name, v := range avg {
		if name == "pipechar" {
			continue
		}
		if v > best*1.05 {
			t.Errorf("group %s (%.1f) beat the thesis-optimal pair (%.1f)", name, v, best)
		}
	}
}

func TestTable34AllPairsPresent(t *testing.T) {
	tb := quickRun(t, "table3.4")
	if len(tb.Rows) != 6 {
		t.Errorf("3-monitor mesh should have 6 directed records, got %d", len(tb.Rows))
	}
}

func TestTable41MemoryDrop(t *testing.T) {
	tb := quickRun(t, "table4.1")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	free1, _ := strconv.ParseUint(tb.Rows[0][3], 10, 64)
	free2, _ := strconv.ParseUint(tb.Rows[1][3], 10, 64)
	if free2 >= free1 {
		t.Errorf("free memory did not drop: %d → %d", free1, free2)
	}
	if delta := free1 - free2; delta != 150*1024*1024 {
		t.Errorf("SuperPI delta = %d bytes, want 150 MB", delta)
	}
}

func TestFig52FastClassesWin(t *testing.T) {
	tb := quickRun(t, "fig5.2")
	if len(tb.Rows) != 11 {
		t.Fatalf("rows = %d, want 11 machines", len(tb.Rows))
	}
	// Rows are sorted fastest first; the four fast-class machines must
	// occupy the top four rows (Fig 5.2's finding).
	fast := map[string]bool{"sagit": true, "lhost": true, "dalmatian": true, "dione": true}
	for i := 0; i < 4; i++ {
		if !fast[tb.Rows[i][0]] {
			t.Errorf("row %d is %s; the P3-866/P4-2.4 class should lead", i, tb.Rows[i][0])
		}
	}
}

// smartBeatsRandom extracts the measured improvement note and asserts
// the smart arm won. The arms are wall-clock measurements of a
// sleep-modeled timing experiment, so on a loaded single-core runner
// one quick-mode run can invert by scheduler noise alone (the test
// order shuffle decides which heavy storm test ran just before);
// a fresh second measurement decides, and a real regression fails
// both.
func smartBeatsRandom(t *testing.T, id string) {
	t.Helper()
	improvement := func() float64 {
		tb := quickRun(t, id)
		for _, n := range tb.Notes {
			if strings.HasPrefix(n, "improvement: ") {
				val := strings.TrimPrefix(n, "improvement: ")
				val = val[:strings.Index(val, "%")]
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					t.Fatalf("%s: bad improvement %q", id, val)
				}
				return f
			}
		}
		t.Fatalf("%s: no improvement note", id)
		return 0
	}
	f := improvement()
	if f <= 0 {
		t.Logf("%s: smart behind random (%.1f%%) once; remeasuring", id, f)
		f = improvement()
	}
	if f <= 0 {
		t.Errorf("%s: smart library did not beat random (%.1f%%) in two consecutive runs", id, f)
	}
}

func TestTable53SmartWins(t *testing.T) { smartBeatsRandom(t, "table5.3") }
func TestTable56SmartWins(t *testing.T) { smartBeatsRandom(t, "table5.6") }

func TestTable53SelectsPaperServers(t *testing.T) {
	tb := quickRun(t, "table5.3")
	for _, row := range tb.Rows {
		if row[0] == "server list" {
			if !strings.Contains(row[2], "dalmatian") || !strings.Contains(row[2], "dione") {
				t.Errorf("smart list = %q, paper selects dalmatian, dione", row[2])
			}
			return
		}
	}
	t.Fatal("no server list row")
}

func TestTable56AvoidsBusyServers(t *testing.T) {
	tb := quickRun(t, "table5.6")
	for _, row := range tb.Rows {
		if row[0] == "server list" {
			for _, busy := range []string{"helene", "telesto", "mimas"} {
				if strings.Contains(row[2], busy) {
					t.Errorf("smart list %q contains busy host %s", row[2], busy)
				}
			}
			return
		}
	}
	t.Fatal("no server list row")
}

func TestFig53ShaperTracksRate(t *testing.T) {
	tb := quickRun(t, "fig5.3")
	for _, row := range tb.Rows {
		ratio, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad ratio %q", row[3])
		}
		if ratio < 0.5 || ratio > 1.5 {
			t.Errorf("run %s: throughput/rate ratio %.2f far from 1", row[0], ratio)
		}
	}
}

func TestTable57SmartPicksFastGroup(t *testing.T) {
	tb := quickRun(t, "table5.7")
	var smartRow string
	for _, row := range tb.Rows {
		if row[0] == "smart servers" {
			smartRow = row[1]
		}
	}
	if smartRow == "" {
		t.Fatal("no smart servers row")
	}
	// Group-1 is fast in table5.7; the smart pick must come from it.
	inFast := false
	for _, h := range []string{"mimas", "telesto", "lhost"} {
		if strings.Contains(smartRow, h) {
			inFast = true
		}
	}
	if !inFast {
		t.Errorf("smart pick %q not in the fast group", smartRow)
	}
	for _, h := range []string{"dione", "titan-x", "pandora-x"} {
		if strings.Contains(smartRow, h) {
			t.Errorf("smart pick %q includes slow-group host %s", smartRow, h)
		}
	}
}

func TestTable59SmartHighestThroughput(t *testing.T) {
	extract := func(cell string) float64 {
		i := strings.LastIndex(cell, "→")
		if i < 0 {
			t.Fatalf("no throughput in %q", cell)
		}
		fields := strings.Fields(cell[i+len("→"):])
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			t.Fatalf("bad throughput in %q", cell)
		}
		return v
	}
	// One measurement: smart throughput and its margin over the best
	// random set. Like smartBeatsRandom, the arms are wall-clock
	// timing-model runs, so a single quick-mode inversion under
	// runner noise gets one fresh remeasure before it counts.
	measure := func() (smart, bestRandom float64) {
		tb := quickRun(t, "table5.9")
		var randoms []float64
		for _, row := range tb.Rows {
			switch {
			case strings.HasPrefix(row[0], "random"):
				randoms = append(randoms, extract(row[1]))
			case row[0] == "smart servers":
				smart = extract(row[1])
			}
		}
		if len(randoms) != 3 || smart == 0 {
			t.Fatalf("rows incomplete: %v / %v", randoms, smart)
		}
		for _, r := range randoms {
			if r > bestRandom {
				bestRandom = r
			}
		}
		return smart, bestRandom
	}
	smart, bestRandom := measure()
	if smart <= bestRandom {
		t.Logf("smart (%.0f KB/s) behind best random (%.0f KB/s) once; remeasuring", smart, bestRandom)
		smart, bestRandom = measure()
	}
	if smart <= bestRandom {
		t.Errorf("smart (%.0f KB/s) did not beat best random set (%.0f KB/s) in two consecutive runs",
			smart, bestRandom)
	}
}
