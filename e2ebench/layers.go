package main

import (
	"sort"
	"strings"

	"freepdm/internal/obs"
)

// metric is one named value of a result table. Per-layer names start
// with their layer.
type metric struct {
	name, unit string
	value      float64
}

// tracedJob is what one traced job leaves behind for the per-layer
// table.
type tracedJob struct {
	spans     []span
	snap      obs.Snapshot
	wallS     float64
	tasks     int
	commits   int
	aborts    int
	respawns  int
	allocB    uint64
	gcCycles  uint32
	maxRSSMB  float64
	predicted float64 // NOW simulator efficiency; 0 where undefined
}

// layerMetrics derives the per-layer table of one traced job.
// untracedWallS is the median untraced wall time of the same run, the
// base of the tracing overhead.
func layerMetrics(j tracedJob, untracedWallS float64) []metric {
	tasks := float64(j.tasks)
	commits := float64(j.commits)
	st := spanTotals(j.spans)
	c := j.snap.Counters

	var nodeOps []float64
	var clusterOps, clusterErrs float64
	for name, v := range c {
		if strings.HasPrefix(name, "cluster.node.") && strings.HasSuffix(name, ".ops") {
			nodeOps = append(nodeOps, float64(v))
			clusterOps += float64(v)
		}
		if strings.HasPrefix(name, "cluster.node.") && strings.HasSuffix(name, ".errors") {
			clusterErrs += float64(v)
		}
	}
	skew := 0.0
	if len(nodeOps) > 0 && clusterOps > 0 {
		sort.Float64s(nodeOps)
		skew = nodeOps[len(nodeOps)-1] / (clusterOps / float64(len(nodeOps)))
	}

	return []metric{
		{"mining.goodness.calls", "count", float64(st.goodnessCalls)},
		{"mining.goodness.busy_s", "s", st.goodnessS},
		{"mining.goodness.share", "ratio", div(st.goodnessS, workers*j.wallS)},
		{"mining.lattice.busy_s", "s", st.latticeS},
		{"core.master.self_s", "s", st.masterSelfS},
		{"core.master.self_us_per_task", "us", div(st.masterSelfS*1e6, tasks)},
		{"core.master.take_wait_s", "s", st.masterTakeS},
		{"core.worker.take_wait_s", "s", st.workerTakeS},
		{"core.worker.idle_share", "ratio", div(st.workerTakeS, workers*j.wallS)},
		{"plinda.commits_per_task", "count/task", div(commits, tasks)},
		{"plinda.aborts", "count", float64(j.aborts)},
		{"plinda.respawns", "count", float64(j.respawns)},
		{"plinda.commit.busy_s", "s", st.commitS},
		{"plinda.commit.master.p50_us", "us", quantileUS(st.masterCommits, 0.50)},
		{"plinda.commit.master.p99_us", "us", quantileUS(st.masterCommits, 0.99)},
		{"plinda.commit.worker.p50_us", "us", quantileUS(st.workerCommits, 0.50)},
		{"plinda.commit.worker.p99_us", "us", quantileUS(st.workerCommits, 0.99)},
		{"plinda.begin.busy_s", "s", st.beginS},
		{"tuplespace.net.bytes_per_task", "B/task", div(float64(c["net.tx_bytes"]+c["net.rx_bytes"]), tasks)},
		{"tuplespace.net.flushes_per_task", "count/task", div(float64(c["net.flushes"]), tasks)},
		{"tuplespace.blocked_per_task", "count/task", div(float64(c["ts.blocked"]), tasks)},
		{"tuplespace.match.wait_p50_us", "us", float64(j.snap.Histograms["ts.wait"].P50Nanos) / 1e3},
		{"durable.wal.bytes_per_commit", "B/commit", div(float64(c["wal.bytes"]), commits)},
		{"durable.wal.records_per_write", "ratio", div(float64(c["wal.appends"]), float64(c["wal.writes"]))},
		{"durable.compactions", "count", float64(c["wal.compactions"])},
		{"cluster.ops_per_task", "count/task", div(clusterOps, tasks)},
		{"cluster.node_skew", "ratio", skew},
		{"cluster.errors", "count", clusterErrs},
		{"now.predicted_efficiency", "ratio", j.predicted},
		{"obs.overhead_frac", "ratio", div(j.wallS, untracedWallS) - 1},
		{"proc.alloc_bytes_per_task", "B/task", div(float64(j.allocB), tasks)},
		{"proc.gc_cycles", "count", float64(j.gcCycles)},
		{"proc.max_rss_mb", "MB", j.maxRSSMB},
	}
}

// deterministicCounts names the per-layer counts proposed as future CI
// gates; a run's details list each one's value in every traced job, so
// whether it repeats exactly can be checked.
var deterministicCounts = []string{
	"plinda.commits_per_task",
	"tuplespace.net.bytes_per_task",
	"durable.wal.bytes_per_commit",
	"cluster.ops_per_task",
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func quantileUS(durNS []int64, q float64) float64 {
	if len(durNS) == 0 {
		return 0
	}
	sort.Slice(durNS, func(i, j int) bool { return durNS[i] < durNS[j] })
	return float64(durNS[int(q*float64(len(durNS)-1))]) / 1e3
}

// totals aggregates a traced job's spans by layer.
type totals struct {
	goodnessCalls                int
	goodnessS, latticeS          float64
	masterSelfS                  float64
	masterTakeS, workerTakeS     float64
	beginS, commitS              float64
	masterCommits, workerCommits []int64
}

// spanTotals sums a traced job's spans (with its proc.master span) by
// layer. The master's self time is its lifetime minus the store ops of
// its transactions.
func spanTotals(spans []span) totals {
	var t totals
	masterNS := int64(0)
	for _, s := range spans {
		d := float64(s.dur()) / 1e9
		switch s.Name {
		case spanMaster:
			masterNS += s.dur()
		case spanGoodness:
			t.goodnessCalls++
			t.goodnessS += d
		case spanChildren, spanSubpattern, spanDecode:
			t.latticeS += d
		}
		if s.Parent <= 0 {
			continue
		}
		role := spans[s.Parent].Name
		if role == spanTxnMaster {
			masterNS -= s.dur()
		}
		switch s.Name {
		case spanBegin:
			t.beginS += d
		case spanCommit:
			t.commitS += d
			if role == spanTxnMaster {
				t.masterCommits = append(t.masterCommits, s.dur())
			} else {
				t.workerCommits = append(t.workerCommits, s.dur())
			}
		case spanTakeIn:
			if role == spanTxnMaster {
				t.masterTakeS += d
			} else {
				t.workerTakeS += d
			}
		}
	}
	t.masterSelfS = float64(masterNS) / 1e9
	return t
}

// withMasterSpan appends the proc.master span, the master's lifetime
// from its first transaction's begin to its last transaction's end,
// and re-parents the master's transactions under it, giving the shape
// run → proc.master → txn.master → store op.
func withMasterSpan(spans []span) []span {
	id := int32(len(spans))
	m := span{ID: id, Parent: 0, Name: spanMaster, Start: -1}
	for i, s := range spans {
		if s.Name != spanTxnMaster {
			continue
		}
		if m.Start < 0 || s.Start < m.Start {
			m.Start = s.Start
		}
		m.End = max(m.End, s.End)
		spans[i].Parent = id
	}
	if m.Start < 0 {
		return spans
	}
	return append(spans, m)
}

// selfTimes sums, per span name, each span's duration minus the part
// of it covered by its children. Store ops inside a transaction are
// keyed by the transaction's role too ("txn.worker/store.in"), which
// keeps a worker waiting for a task apart from the master waiting for
// a result.
func selfTimes(spans []span) map[string]float64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		key := s.Name
		if p := s.Parent; p > 0 && (spans[p].Name == spanTxnMaster || spans[p].Name == spanTxnWorker) {
			key = spans[p].Name + "/" + s.Name
		}
		out[key] += float64(s.dur()-covered(s, kids[i])) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(p span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, c := range children {
		s, e := max(c.Start, p.Start), min(c.End, p.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}
