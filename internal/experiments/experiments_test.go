package experiments

import (
	"bytes"
	"strings"
	"testing"

	"freepdm/internal/obs"
)

func init() {
	// Shrink the measurement passes so the smoke tests stay quick.
	AccuracyPairs = 1
	Ch6Trials = 1
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation chapters must be
	// registered, plus the ablations.
	want := []string{
		"t2.3",
		"t4.2", "f4.3", "f4.8", "f4.9", "f4.10", "f4.11", "f4.12", "f4.13", "f4.14",
		"t5.1", "t5.2", "t5.3", "t5.4", "f5.6", "t5.5", "t5.6",
		"t6.1", "f6.3", "f6.4", "t6.2", "f6.5", "f6.6", "t6.3", "f6.7", "f6.8",
		"a.edag", "a.adaptive", "a.boundary", "a.logical", "a.subpattern", "a.txn", "a.prefixtree", "x.episode",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if got := len(All()); got < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", got, len(want))
	}
	// All() must be sorted and IDs unique.
	all := All()
	seen := map[string]bool{}
	for i, e := range all {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if i > 0 && all[i-1].ID >= e.ID {
			t.Errorf("All() not sorted at %s", e.ID)
		}
	}
}

// runExp runs one experiment and returns its output.
func runExp(t *testing.T, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("no experiment %s", id)
	}
	var b bytes.Buffer
	if err := e.Run(&b); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return b.String()
}

func TestTable42ReportsBothSettings(t *testing.T) {
	out := runExp(t, "t4.2")
	if !strings.Contains(out, "setting 1") || !strings.Contains(out, "setting 2") {
		t.Fatalf("missing settings:\n%s", out)
	}
	// Setting 1 finds exactly the three exactly-conserved motifs.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "setting 1") {
			f := strings.Fields(line)
			if len(f) < 7 || f[5] != "3" {
				t.Fatalf("setting 1 should find 3 motifs: %q", line)
			}
			return
		}
	}
	t.Fatalf("setting 1 row missing:\n%s", out)
}

func TestFigure48Crossover(t *testing.T) {
	out := runExp(t, "f4.8")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 8 {
		t.Fatalf("truncated output:\n%s", out)
	}
	// Row for 1 machine: both efficiencies high (>90%).
	f := strings.Fields(lines[2])
	if len(f) != 3 || f[0] != "1" {
		t.Fatalf("unexpected row: %q", lines[2])
	}
	for _, col := range f[1:] {
		var v int
		fmtSscanPct(col, &v)
		if v < 90 {
			t.Fatalf("1-machine efficiency %s too low:\n%s", col, out)
		}
	}
}

func TestFigure413AdaptiveHelps(t *testing.T) {
	out := runExp(t, "f4.13")
	// At 6+ machines the adaptive column must beat the plain column.
	var plain6, adaptive6 int
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "6" {
			fmtSscanPct(f[1], &plain6)
			fmtSscanPct(f[2], &adaptive6)
		}
	}
	if adaptive6 <= plain6 {
		t.Fatalf("adaptive master does not help at 6 machines: %d%% vs %d%%\n%s",
			adaptive6, plain6, out)
	}
}

func fmtSscanPct(s string, v *int) (int, error) {
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	*v = n
	return 1, nil
}

func TestTables51And52Shape(t *testing.T) {
	out := runExp(t, "t5.1")
	for _, name := range []string{"diabetes", "german", "mushrooms", "satimage", "smoking", "vote", "yeast"} {
		if !strings.Contains(out, name) {
			t.Fatalf("t5.1 missing %s:\n%s", name, out)
		}
	}
	out = runExp(t, "t5.2")
	if !strings.Contains(out, "8124") || !strings.Contains(out, "6434") {
		t.Fatalf("t5.2 missing case counts:\n%s", out)
	}
}

func TestTable56AllRows(t *testing.T) {
	if testing.Short() {
		t.Skip("fx evaluation is slow")
	}
	out := runExp(t, "t5.6")
	for _, pair := range []string{"yu", "du", "yd", "fu", "up"} {
		if !strings.Contains(out, pair) {
			t.Fatalf("t5.6 missing %s:\n%s", pair, out)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	for _, id := range []string{"a.edag", "a.boundary", "a.logical", "a.txn"} {
		out := runExp(t, id)
		if len(out) == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

// TestSubpatternAblationCounts pins the matcher-run counts of the
// a.subpattern ablation. They count Goodness evaluations, so a change
// to how Goodness keeps its books (locking, caching) or to the matcher
// must leave them exactly as they are.
func TestSubpatternAblationCounts(t *testing.T) {
	out := runExp(t, "a.subpattern")
	for _, row := range []string{"without 9117 0", "with 8986 131"} {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.Join(strings.Fields(line), " ") == row {
				found = true
			}
		}
		if !found {
			t.Errorf("a.subpattern has no row %q:\n%s", row, out)
		}
	}
}

func TestBatchTasksConservesCost(t *testing.T) {
	run := settingRuns()[0]
	tr := run.trace.Chunked(run.trace.TotalCost()/110, 2)
	tasks, _ := tr.Tasks(0, 2)
	before := 0.0
	for _, task := range tasks {
		before += task.Cost
	}
	batched := batchTasks(tasks, 20)
	after := 0.0
	for _, task := range batched {
		after += task.Cost
	}
	if before-after > 1e-9 || after-before > 1e-9 {
		t.Fatalf("batching changed total cost: %v -> %v", before, after)
	}
	if len(batched) > len(tasks) {
		t.Fatalf("batching grew the task list: %d -> %d", len(tasks), len(batched))
	}
}

func TestObservedExperimentReportsSimulatorMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	SetObserver(reg, nil)
	defer SetObserver(nil, nil)
	e, ok := ByID("f4.8")
	if !ok {
		t.Fatal("f4.8 not registered")
	}
	var buf bytes.Buffer
	if err := e.Run(&buf); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Counters["now.tasks"] == 0 {
		t.Fatalf("observed f4.8 recorded no simulated tasks: %v", s.Counters)
	}
	if h, ok := s.Histograms["now.task"]; !ok || h.Count == 0 {
		t.Fatal("no simulated task-duration observations")
	}
}
