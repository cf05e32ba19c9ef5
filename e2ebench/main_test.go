package main

import (
	"encoding/json"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"freepdm/internal/cluster"
	"freepdm/internal/core"
	"freepdm/internal/durable"
	"freepdm/internal/mining/assoc"
	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// tinyWorkloads are the three workloads' traversal and store shapes
// over a problem small enough for a unit test.
func tinyWorkloads() []workload {
	small := func(seed int64) problem {
		db := assoc.GenerateDB(60, 8, [][]int{{0, 1, 2}}, 0.3, seed)
		return assoc.NewProblem(db, 4)
	}
	return []workload{
		{name: "pled-wal", backend: walClient, problem: small},
		{name: "plet-cluster", plet: true, backend: walCluster, problem: small},
		{name: "plet-space", plet: true, backend: inProcess, problem: small},
	}
}

func TestJobMatchesReference(t *testing.T) {
	for _, w := range tinyWorkloads() {
		ref := solveReference(w, 3)
		for _, traced := range []bool{false, true} {
			rec, tj, err := job(w, 3, t.TempDir(), ref, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rec.Tasks != ref.tasks || rec.Commits == 0 {
				t.Errorf("%s traced=%v: %d tasks in %d commits, reference %d tasks",
					w.name, traced, rec.Tasks, rec.Commits, ref.tasks)
			}
			if traced && len(tj.spans) == 0 {
				t.Errorf("%s: traced job recorded no spans", w.name)
			}
		}
	}
}

// TestJobRejectsWrongReference runs real jobs against references that
// are wrong in each way check looks for.
func TestJobRejectsWrongReference(t *testing.T) {
	for _, w := range tinyWorkloads() {
		good := solveReference(w, 3)
		if len(good.results) < 2 {
			t.Fatalf("%s: reference too small to corrupt", w.name)
		}
		wrong := map[string]reference{
			"missing result": {results: good.results[1:], tasks: good.tasks},
			"changed score": {results: append([]string{strings.TrimSuffix(good.results[0], "0") + "1"},
				good.results[1:]...), tasks: good.tasks},
			"fewer tasks": {results: good.results, tasks: good.tasks - 1},
		}
		for what, ref := range wrong {
			if _, _, err := job(w, 3, t.TempDir(), ref, false); err == nil {
				t.Errorf("%s: a reference with a %s was accepted", w.name, what)
			}
		}
	}
}

func TestCheckComparesScores(t *testing.T) {
	w := tinyWorkloads()[0]
	ref := solveReference(w, 3)
	res, _ := core.SolveSequential(w.problem(3))
	if err := check(ref, res, ref.tasks); err != nil {
		t.Fatalf("the reference's own results were rejected: %v", err)
	}
	res[0].Goodness++
	if err := check(ref, res, ref.tasks); err == nil {
		t.Fatal("a changed goodness was accepted")
	}
}

// TestWrapStoreForwardsOptionalInterfaces checks that the traced
// wrapper of every backend implements exactly the optional interfaces
// PLinda looks for on the store and its transactions, and that PLinda
// finds the same in-process space through it.
func TestWrapStoreForwardsOptionalInterfaces(t *testing.T) {
	served := func(be tuplespace.ServerBackend) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go tuplespace.Serve(ln, be) //nolint:errcheck // ends when the listener closes
		return ln.Addr().String()
	}
	ds, err := durable.Open(t.TempDir(), nil, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	cl, err := tuplespace.DialOpts(served(tuplespace.New()), tuplespace.DialOptions{DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	router, err := cluster.New([]string{served(tuplespace.New()), served(tuplespace.New())},
		cluster.Options{Dial: tuplespace.DialOptions{DialTimeout: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	stores := map[string]tuplespace.TxnStore{
		"space":   tuplespace.New(),
		"durable": ds,
		"client":  cl,
		"router":  router,
	}
	for name, inner := range stores {
		wrapped, err := wrapStore(inner, newRecorder())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		same := func(what string, in, out bool) {
			if in != out {
				t.Errorf("%s: inner implements %s: %v, wrapper: %v", name, what, in, out)
			}
		}
		_, a := inner.(tuplespace.Recoverer)
		_, b := wrapped.(tuplespace.Recoverer)
		same("Recoverer", a, b)
		ri, a := inner.(retryable)
		rw, b := wrapped.(retryable)
		same("RetryableFailures", a, b)
		if a && b && ri.RetryableFailures() != rw.RetryableFailures() {
			t.Errorf("%s: RetryableFailures differs through the wrapper", name)
		}
		if got, want := plinda.NewServerOnStore(wrapped).Space(), plinda.NewServerOnStore(inner).Space(); got != want {
			t.Errorf("%s: PLinda sees space %p through the wrapper, %p without", name, got, want)
		}

		txi, err := inner.Begin()
		if err != nil {
			t.Fatal(err)
		}
		txw, err := wrapped.Begin()
		if err != nil {
			t.Fatal(err)
		}
		_, a = txi.(tuplespace.ContCommitter)
		_, b = txw.(tuplespace.ContCommitter)
		same("ContCommitter on its transactions", a, b)
		if err := txi.Abort(); err != nil {
			t.Fatal(err)
		}
		if err := txw.Abort(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: spanRun, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: spanTxnMaster, Start: 10, End: 50},
		{ID: 2, Parent: 1, Name: spanBegin, Start: 10, End: 15},
		{ID: 3, Parent: 1, Name: spanTakeIn, Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: spanCommit, Start: 45, End: 50},
		{ID: 5, Parent: 0, Name: spanTxnWorker, Start: 40, End: 90},
		{ID: 6, Parent: 5, Name: spanTakeIn, Start: 40, End: 60},
	}
	spans = withMasterSpan(spans)
	self := selfTimes(spans)
	want := map[string]float64{
		spanRun:                          20e-9, // 100 minus the union [10,90]
		spanTxnMaster:                    20e-9,
		spanTxnWorker:                    30e-9,
		spanMaster:                       0, // its one transaction covers it
		spanTxnMaster + "/" + spanTakeIn: 10e-9,
		spanTxnWorker + "/" + spanTakeIn: 20e-9,
	}
	for name, v := range want {
		if d := self[name] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self time of %s is %g s, want %g s", name, self[name], v)
		}
	}
	tot := spanTotals(spans)
	if want := 40e-9 - 20e-9; tot.masterSelfS < want-1e-15 || tot.masterSelfS > want+1e-15 {
		t.Errorf("master self time %g s, want %g s", tot.masterSelfS, want)
	}
}

// TestRelabelKeepsLatticeSize checks that the seed changes a
// workload's input but not how much work mining it takes.
// plet-motif-coarse relabels the same corpus as plet-motif-cluster
// and is left out because its reference takes seconds to solve.
func TestRelabelKeepsLatticeSize(t *testing.T) {
	for _, name := range []string{"pled-assoc-wal", "plet-motif-cluster"} {
		w, ok := workloadByName(name)
		if !ok {
			t.Fatalf("%s is missing", name)
		}
		a, b := solveReference(w, 1), solveReference(w, 2)
		if a.tasks != b.tasks || len(a.results) != len(b.results) {
			t.Errorf("%s: seeds 1 and 2 give %d/%d and %d/%d tasks/results",
				name, a.tasks, len(a.results), b.tasks, len(b.results))
		}
		if strings.Join(a.results, "\n") == strings.Join(b.results, "\n") {
			t.Errorf("%s: seeds 1 and 2 give the same input", name)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run prints exactly the
// metrics BENCHMARK.json declares, in its order and with its units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(table string, got []metric, want []decl) {
		if len(got) != len(want) {
			t.Fatalf("%s: the benchmark prints %d metrics, BENCHMARK.json declares %d", table, len(got), len(want))
		}
		for i, m := range got {
			if m.name != want[i].Name || m.unit != want[i].Unit {
				t.Errorf("%s %d: prints %s (%s), BENCHMARK.json declares %s (%s)",
					table, i, m.name, m.unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd(nil), b.EndToEnd)
	same("per_layer", layerMetrics(tracedJob{}, 1), b.PerLayer)
}
