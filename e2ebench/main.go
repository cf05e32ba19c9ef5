// Command e2ebench runs whole PLED/PLET mining jobs on the real PLinda
// runtime and reports end-to-end and per-layer metrics. Each job is a
// closed-loop batch: one master and two workers in this process, each
// worker taking its next task only after committing the last. Every
// job starts from freshly generated inputs and fresh servers, and its
// results and task count are checked against the sequential
// reference for the same seed.
//
// Usage, from the root of the repository:
//
//	bash e2ebench/run.sh --workload plet-motif-cluster --seed 7 --seconds 55 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, medians over untraced jobs; with --trace 1
// they are the per-layer ones, medians over traced jobs that alternate
// with untraced ones. The line before it holds the per-job details.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"freepdm/internal/core"
)

// outDir, relative to the working directory, receives the WAL
// directories of running jobs and the span file of the last traced job.
const outDir = ".bench_out"

// minJobs is the fewest untraced jobs a run makes whatever --seconds
// says; a --trace 1 run makes at least this many of each kind.
const minJobs = 3

// setupReps is how many times an untraced job sets up; the last set-up
// runs the job. Set-up takes a few milliseconds and varies more from
// one to the next than a job does.
const setupReps = 4

// jobTimeout bounds one job; a job that exceeds it is stopped and
// counted as failed.
const jobTimeout = 60 * time.Second

// jobRecord is one job's line in the details.
type jobRecord struct {
	Warmup  bool      `json:"warmup,omitempty"`
	Traced  bool      `json:"traced"`
	SetupS  []float64 `json:"setup_s"`
	WallS   float64   `json:"wall_s"`
	CPUS    float64   `json:"cpu_s"`
	Tasks   int       `json:"tasks"`
	Commits int       `json:"commits"`
	Err     string    `json:"err,omitempty"`
}

type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]valueWithUnit `json:"metrics"`
}

type valueWithUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 7, "input generator seed")
	seconds := flag.Int("seconds", 55, "how long to keep starting jobs (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of traced jobs, 0 the end-to-end metrics")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workloads: %s)\n", workloadNames())
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

func run(w workload, seed int64, budget time.Duration, traced bool) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base, err := os.MkdirTemp(outDir, "jobs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	// The reference is solved once, outside every timed region.
	refStart := time.Now()
	ref := solveReference(w, seed)
	refS := time.Since(refStart).Seconds()
	predicted := 0.0
	if traced && ref.trace != nil {
		predicted = predictedEfficiency(ref.trace)
	}

	var jobs []jobRecord
	var tjobs []tracedJob
	var lastSpans []span
	var first *jobRecord // the first successful job
	failed := 0
	least := minJobs
	if traced {
		least *= 2
	}
	// Job -1 is an untraced warm-up: it warms the heap, the page cache
	// and the CPU caches before the measured jobs. It is checked like
	// any other job but left out of the metrics and the time budget.
	var start time.Time
	for i := -1; ; i++ {
		if i == 0 {
			start = time.Now()
		}
		// A --trace 1 run alternates untraced and traced jobs.
		doTrace := traced && i%2 == 1
		if i >= least && time.Since(start) >= budget {
			break
		}
		rec, tj, err := job(w, seed, base, ref, doTrace)
		if err == nil && first != nil && rec.Commits != first.Commits {
			// Traced and untraced jobs must run the same program.
			err = fmt.Errorf("%d commits, the first job made %d", rec.Commits, first.Commits)
		}
		rec.Warmup = i < 0
		if err != nil {
			rec.Err = err.Error()
			failed++
		} else {
			if first == nil {
				first = &rec
			}
			if doTrace {
				tj.predicted = predicted
				tjobs = append(tjobs, tj)
				lastSpans = tj.spans
			}
		}
		jobs = append(jobs, rec)
	}

	e2e := endToEnd(jobs)
	res := result{Attempted: len(jobs), Failed: failed, Metrics: map[string]valueWithUnit{}}
	details := map[string]any{
		"workload":    w.name,
		"seed":        seed,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"ref_tasks":   ref.tasks,
		"ref_results": len(ref.results),
		"ref_s":       refS,
		"jobs":        jobs,
	}
	if !traced {
		for _, m := range e2e {
			res.Metrics[m.name] = valueWithUnit{m.value, m.unit}
		}
	} else {
		table, counts := perLayerTable(tjobs, e2e[0].value)
		for _, m := range table {
			res.Metrics[m.name] = valueWithUnit{m.value, m.unit}
		}
		details["counts"] = counts
		if lastSpans != nil {
			details["self_time_s"] = selfTimes(lastSpans)
			path := filepath.Join(outDir, w.name+"-spans.jsonl")
			if err := writeSpans(path, lastSpans); err != nil {
				return err
			}
			details["spans_file"] = path
		}
	}
	res.Correct = failed == 0
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(details); err != nil {
		return err
	}
	return enc.Encode(res)
}

// endToEnd is the end-to-end table: medians over the successful
// untraced jobs, wall_s first.
func endToEnd(jobs []jobRecord) []metric {
	var wall, tput, cpu, setupS []float64
	for _, j := range jobs {
		if j.Warmup || j.Traced || j.Err != "" {
			continue
		}
		wall = append(wall, j.WallS)
		tput = append(tput, float64(j.Tasks)/j.WallS)
		cpu = append(cpu, 1e3*j.CPUS/float64(j.Tasks))
		setupS = append(setupS, j.SetupS...)
	}
	return []metric{
		{"wall_s", "s", median(wall)},
		{"tasks_per_s", "1/s", median(tput)},
		{"cpu_ms_per_task", "ms", median(cpu)},
		{"setup_s", "s", median(setupS)},
	}
}

// perLayerTable takes each per-layer metric's median over the traced
// jobs, and lists the deterministic counts' value in every traced job.
func perLayerTable(tjobs []tracedJob, untracedWallS float64) ([]metric, map[string][]float64) {
	if len(tjobs) == 0 {
		return nil, nil
	}
	var tables [][]metric
	for _, tj := range tjobs {
		tables = append(tables, layerMetrics(tj, untracedWallS))
	}
	out := make([]metric, len(tables[0]))
	counts := map[string][]float64{}
	for i, m := range tables[0] {
		vals := make([]float64, len(tables))
		for k, t := range tables {
			vals[k] = t[i].value
		}
		out[i] = metric{m.name, m.unit, median(vals)}
		for _, d := range deterministicCounts {
			if d == m.name {
				counts[d] = vals
			}
		}
	}
	return out, counts
}

// job sets up, runs, checks and tears down one mining job.
func job(w workload, seed int64, base string, ref reference, traced bool) (jobRecord, tracedJob, error) {
	rec := jobRecord{Traced: traced}
	var tj tracedJob
	var spanRec *recorder
	if traced {
		spanRec = newRecorder()
	}
	if !traced {
		// The extra set-ups are torn down at once; they only give
		// setup_s more samples than there are jobs.
		for k := 1; k < setupReps; k++ {
			runtime.GC()
			t0 := time.Now()
			e, err := setup(w, seed, base, nil)
			rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
			if err != nil {
				return rec, tj, fmt.Errorf("setup: %w", err)
			}
			if err := e.close(); err != nil {
				return rec, tj, fmt.Errorf("teardown: %w", err)
			}
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}

	t0 := time.Now()
	e, err := setup(w, seed, base, spanRec)
	rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
	if err != nil {
		return rec, tj, fmt.Errorf("setup: %w", err)
	}
	if traced {
		core.SetObserver(e.reg, nil)
		spanRec.t0 = time.Now()
	}
	watchdog := time.AfterFunc(jobTimeout, e.srv.Close)
	cpu0 := cpuSeconds()
	t1 := time.Now()
	results, runErr := e.run(w)
	rec.WallS = time.Since(t1).Seconds()
	rec.CPUS = cpuSeconds() - cpu0
	watchdog.Stop()
	if traced {
		core.SetObserver(nil, nil)
		tj.spans = withMasterSpan(spanRec.finish())
		tj.snap = e.reg.Snapshot()
	}
	rec.Tasks = e.tasks(tj.spans)
	rec.Commits = e.srv.Commits()
	tj.commits, tj.aborts, tj.respawns = rec.Commits, e.srv.Aborts(), e.srv.Respawns()
	closeErr := e.close()
	if traced {
		runtime.ReadMemStats(&m1)
		tj.allocB = m1.TotalAlloc - m0.TotalAlloc
		tj.gcCycles = m1.NumGC - m0.NumGC
		tj.maxRSSMB = maxRSSMB()
		tj.wallS = rec.WallS
		tj.tasks = rec.Tasks
		if ev := tj.snap.Counters["core.evaluated"]; int(ev) != rec.Tasks {
			return rec, tj, fmt.Errorf("core.evaluated is %d, the problem wrapper saw %d", ev, rec.Tasks)
		}
	}
	if runErr != nil {
		return rec, tj, fmt.Errorf("run: %w", runErr)
	}
	if err := check(ref, results, rec.Tasks); err != nil {
		return rec, tj, fmt.Errorf("check: %w", err)
	}
	if closeErr != nil {
		return rec, tj, fmt.Errorf("teardown: %w", closeErr)
	}
	return rec, tj, nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set; Linux reports KiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

// median is 0 for no values, which only a run whose jobs all failed
// reports.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// writeSpans writes a traced job's spans, one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close() //nolint:errcheck // reporting the encode failure
			return err
		}
	}
	return errors.Join(bw.Flush(), f.Close())
}
