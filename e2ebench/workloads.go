package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"freepdm/internal/cluster"
	"freepdm/internal/core"
	"freepdm/internal/durable"
	"freepdm/internal/mining/assoc"
	"freepdm/internal/mining/motif"
	"freepdm/internal/now"
	"freepdm/internal/obs"
	"freepdm/internal/plinda"
	"freepdm/internal/seq"
	"freepdm/internal/tuplespace"
)

// workers is the PLinda worker count of every workload: two workers
// plus the master in one process.
const workers = 2

// backend is the store a workload's PLinda server runs on.
type backend int

const (
	inProcess  backend = iota // one *tuplespace.Space
	walClient                 // one Client to a durable.Space served on loopback
	walCluster                // a cluster.Router over two durable.Space servers
)

// workload is one benchmark input: a mining problem generated from
// the seed, the traversal that mines it, and the store it runs on.
type workload struct {
	name    string
	plet    bool // RunPLET over the E-tree; otherwise RunPLED over the E-dag
	backend backend
	problem func(seed int64) problem
}

var workloads = []workload{
	{
		name:    "pled-assoc-wal",
		backend: walClient,
		problem: func(seed int64) problem {
			db := assoc.GenerateDB(400, 24, [][]int{{0, 1, 2, 3}, {5, 6, 7}, {10, 11, 12}}, 0.3, assocDBSeed)
			return assoc.NewProblem(relabel(db, seed), 3)
		},
	},
	{
		name:    "plet-motif-cluster",
		plet:    true,
		backend: walCluster,
		problem: func(seed int64) problem {
			return motif.NewProblem(relabelSeqs(seq.CyclinsSpec(motifCorpusSeed).Generate(), seed),
				motif.Params{MinOccur: 5, MaxMut: 0, MinLength: 12, MaxLength: 24})
		},
	},
	{
		name:    "plet-motif-coarse",
		plet:    true,
		backend: inProcess,
		problem: func(seed int64) problem {
			return motif.NewProblem(relabelSeqs(seq.CyclinsSpec(motifCorpusSeed).Generate(), seed),
				motif.Params{MinOccur: 12, MaxMut: 4, MinLength: 16, MaxLength: 24, MinSeedSeqs: 3})
		},
	},
}

// assocDBSeed fixes the market-basket database of pled-assoc-wal. Its
// size swings with the generator seed (2,293 to 4,223 evaluated
// itemsets over seeds 1-16), and the PLED master's cost grows faster
// than linearly in it, so the workload seed relabels this one
// database instead: every seed is a different input of the same
// difficulty.
const assocDBSeed = 7

// relabel returns db with its items renamed by a seeded permutation
// and its transactions shuffled. The frequent-itemset lattice is
// isomorphic to db's, so the E-dag has the same number of patterns.
func relabel(db *assoc.DB, seed int64) *assoc.DB {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(db.Items)
	out := &assoc.DB{Items: db.Items}
	for _, i := range rng.Perm(len(db.Txns)) {
		t := make(assoc.Itemset, len(db.Txns[i]))
		for k, it := range db.Txns[i] {
			t[k] = perm[it]
		}
		sort.Ints(t)
		out.Txns = append(out.Txns, t)
	}
	return out
}

// motifCorpusSeed fixes the protein corpus of the motif workloads, for
// the same reason: CyclinsSpec's own seed moves the E-tree's size by
// 3% and its goodness cost by 8% between seeds 1-10, so the workload
// seed relabels this one corpus instead.
const motifCorpusSeed = 42

// relabelSeqs returns seqs with the amino acids renamed by a seeded
// permutation of the alphabet and the sequences shuffled. Segment
// motifs and their mutation distances map one to one, so the E-tree
// has the same nodes under different keys.
func relabelSeqs(seqs []string, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var to [256]byte
	for i, k := range rng.Perm(len(seq.Alphabet)) {
		to[seq.Alphabet[i]] = seq.Alphabet[k]
	}
	out := make([]string, 0, len(seqs))
	for _, i := range rng.Perm(len(seqs)) {
		b := []byte(seqs[i])
		for k, c := range b {
			b[k] = to[c]
		}
		out = append(out, string(b))
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// reference is what a correct job must produce: the sequential
// solver's results and the number of patterns it evaluated.
type reference struct {
	results []string // canonical "key score" lines, sorted
	tasks   int
	trace   *core.Trace // the E-tree, for PLET workloads
}

// solveReference runs the sequential reference on its own problem
// instance: SolveSequential for PLED, the good nodes of BuildTrace for
// PLET, whose task count is the trace without its root.
func solveReference(w workload, seed int64) reference {
	pr := w.problem(seed)
	if !w.plet {
		res, st := core.SolveSequential(pr)
		return reference{results: canonical(res), tasks: st.Evaluated}
	}
	tr := core.BuildTrace(pr)
	var res []string
	var walk func(n *core.TraceNode)
	walk = func(n *core.TraceNode) {
		if n.Good {
			res = append(res, line(n.Key, n.Goodness))
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, c := range tr.Root.Children {
		walk(c)
	}
	sort.Strings(res)
	return reference{results: res, tasks: tr.NodeCnt - 1, trace: tr}
}

func line(key string, score float64) string {
	return strconv.Quote(key) + " " + strconv.FormatFloat(score, 'g', -1, 64)
}

func canonical(rs []core.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = line(r.Pattern.Key(), r.Goodness)
	}
	sort.Strings(out)
	return out
}

// check compares a job's outcome with the reference: the same result
// set and the same number of evaluated patterns, so a job that skips
// work fails rather than looking fast.
func check(ref reference, results []core.Result, tasks int) error {
	got := canonical(results)
	if len(got) != len(ref.results) {
		return fmt.Errorf("%d results, reference has %d", len(got), len(ref.results))
	}
	for i := range got {
		if got[i] != ref.results[i] {
			return fmt.Errorf("result %d is %s, reference has %s", i, got[i], ref.results[i])
		}
	}
	if tasks != ref.tasks {
		return fmt.Errorf("%d tasks evaluated, reference evaluated %d", tasks, ref.tasks)
	}
	return nil
}

// predictedEfficiency is the NOW simulator's worker efficiency for the
// reference E-tree under the load-balanced PLET strategy on as many
// uniform machines as the job has workers.
func predictedEfficiency(tr *core.Trace) float64 {
	initial, pre := tr.Tasks(core.LoadBalanced, 1)
	cl := now.Cluster{Machines: now.Uniform(workers), MasterPre: pre}
	return now.Efficiency(tr.TotalCost(), cl.Run(initial).Makespan, workers)
}

// env is one job's freshly built inputs: the problem, the PLinda
// server on its store, and what tearing it down takes.
type env struct {
	pr      problem
	srv     *plinda.Server
	reg     *obs.Registry // nil for untraced jobs
	servers []*walServer
	dir     string
}

// walServer is one WAL-backed tuple-space server on loopback.
type walServer struct {
	ds     *durable.Space
	ln     net.Listener
	served chan error
}

func startWALServer(dir string, reg *obs.Registry) (*walServer, error) {
	ds, err := durable.Open(dir, nil, durable.Options{})
	if err != nil {
		return nil, err
	}
	if reg != nil {
		// Before the listener: the server reads the registry per connection.
		ds.Observe(reg, nil)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ds.Close() //nolint:errcheck // reporting the listen failure
		return nil, err
	}
	ws := &walServer{ds: ds, ln: ln, served: make(chan error, 1)}
	go func() { ws.served <- tuplespace.Serve(ln, ds) }()
	return ws, nil
}

// stop closes the listener, waits for Serve to return (its client
// connections are already closed) and closes the WAL.
func (ws *walServer) stop() error {
	err := ws.ln.Close()
	select {
	case serr := <-ws.served:
		err = errors.Join(err, serr)
	case <-time.After(10 * time.Second):
		err = errors.Join(err, errors.New("tuple-space server did not stop"))
	}
	return errors.Join(err, ws.ds.Close())
}

// setup generates the workload's inputs for the seed and starts fresh
// servers on empty WAL directories under base: a reused directory
// would replay the previous job's poison tuples. With rec non-nil the
// problem and store are wrapped for tracing and the layers' registries
// are attached; otherwise the problem only counts its Goodness calls.
func setup(w workload, seed int64, base string, rec *recorder) (e *env, err error) {
	e = &env{}
	defer func() {
		if err != nil {
			e.close() //nolint:errcheck // reporting the setup failure
		}
	}()
	pr := w.problem(seed)
	if rec != nil {
		e.reg = obs.NewRegistry()
		e.pr = &tracedProblem{problem: pr, rec: rec}
	} else {
		e.pr = &countedProblem{problem: pr}
	}
	var store tuplespace.TxnStore
	switch w.backend {
	case inProcess:
		sp := tuplespace.New()
		if e.reg != nil {
			sp.Observe(e.reg, nil)
		}
		store = sp
	case walClient, walCluster:
		if e.dir, err = os.MkdirTemp(base, "job-"); err != nil {
			return e, err
		}
		nodes := 1
		if w.backend == walCluster {
			nodes = 2
		}
		addrs := make([]string, nodes)
		for i := range addrs {
			ws, err := startWALServer(filepath.Join(e.dir, strconv.Itoa(i)), e.reg)
			if err != nil {
				return e, err
			}
			e.servers = append(e.servers, ws)
			addrs[i] = ws.ln.Addr().String()
		}
		if w.backend == walClient {
			cl, err := tuplespace.DialOpts(addrs[0], tuplespace.DialOptions{DialTimeout: 5 * time.Second})
			if err != nil {
				return e, err
			}
			if e.reg != nil {
				cl.Observe(e.reg, nil)
			}
			store = cl
		} else {
			r, err := cluster.New(addrs, cluster.Options{Dial: tuplespace.DialOptions{DialTimeout: 5 * time.Second}})
			if err != nil {
				return e, err
			}
			if e.reg != nil {
				r.Observe(e.reg, nil)
			}
			store = r
		}
	}
	if rec != nil {
		wrapped, err := wrapStore(store, rec)
		if err != nil {
			store.Close() //nolint:errcheck // reporting the wrap failure
			return e, err
		}
		store = wrapped
	}
	e.srv = plinda.NewServerOnStore(store)
	return e, nil
}

// close stops the PLinda server (which closes its store), then the
// tuple-space servers, and removes the WAL directories.
func (e *env) close() error {
	if e.srv != nil {
		e.srv.Close()
	}
	var err error
	for _, ws := range e.servers {
		err = errors.Join(err, ws.stop())
	}
	if e.dir != "" {
		err = errors.Join(err, os.RemoveAll(e.dir))
	}
	return err
}

// tasks reports how many patterns the job evaluated.
func (e *env) tasks(spans []span) int {
	if c, ok := e.pr.(*countedProblem); ok {
		return int(c.evals.Load())
	}
	n := 0
	for _, s := range spans {
		if s.Name == spanGoodness {
			n++
		}
	}
	return n
}

// run mines the problem on the job's server.
func (e *env) run(w workload) ([]core.Result, error) {
	if w.plet {
		return core.RunPLET(e.srv, e.pr, workers)
	}
	return core.RunPLED(e.srv, e.pr, workers)
}
