package motif

import (
	"strings"
	"testing"

	"freepdm/internal/core"
	"freepdm/internal/plinda"
	"freepdm/internal/seq"
)

var toySeqs = []string{"FFRR", "MRRM", "MTRM", "DPKY", "AVLG"}

func keys(rs []core.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Pattern.Key()
	}
	return out
}

func TestToyExampleFromSection231(t *testing.T) {
	// "Find the patterns P of the form *X* where P occurs in at least
	// 2 sequences in D and |P| >= 2": good patterns are *RR* and *RM*.
	res := Discover(toySeqs, Params{MinOccur: 2, MaxMut: 0, MinLength: 2, MaxLength: 4})
	got := map[string]bool{}
	for _, r := range res {
		got[r.Pattern.Key()] = true
	}
	if !got["RR"] || !got["RM"] {
		t.Fatalf("missing expected motifs, got %v", keys(res))
	}
	for k := range got {
		if len(k) < 2 {
			t.Fatalf("short motif %q reported", k)
		}
		m := seq.Motif{Segments: []string{k}}
		if m.OccurrenceNo(toySeqs, 0) < 2 {
			t.Fatalf("reported motif %q occurs < 2 times", k)
		}
	}
}

func TestSubpatternsPrefixAndSuffix(t *testing.T) {
	pr := NewProblem(toySeqs, Params{MinOccur: 2, MinLength: 2})
	p, _ := pr.Decode("FRR")
	subs := pr.Subpatterns(p)
	if len(subs) != 2 || subs[0].Key() != "FR" || subs[1].Key() != "RR" {
		t.Fatalf("subpatterns of FRR: %v", subs)
	}
	// Degenerate: AA has prefix A and suffix A — reported once.
	pAA, _ := pr.Decode("AA")
	if subs := pr.Subpatterns(pAA); len(subs) != 1 || subs[0].Key() != "A" {
		t.Fatalf("subpatterns of AA: %v", subs)
	}
}

func TestChildrenComeFromGST(t *testing.T) {
	pr := NewProblem(toySeqs, Params{MinOccur: 1, MinLength: 2, MaxLength: 4})
	p, _ := pr.Decode("R")
	kids := pr.Children(p)
	var ks []string
	for _, k := range kids {
		ks = append(ks, k.Key())
	}
	if strings.Join(ks, ",") != "RM,RR" {
		t.Fatalf("children of R: %v", ks)
	}
	// Extensions stop at MaxLength.
	long, _ := pr.Decode("FFRR")
	if kids := pr.Children(long); len(kids) != 0 {
		t.Fatalf("children beyond MaxLength: %v", kids)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	pr := NewProblem(toySeqs, Params{MinOccur: 1, MinLength: 2})
	if _, err := pr.Decode("AB1"); err == nil {
		t.Fatal("accepted invalid key")
	}
}

func TestAllTraversalsAgree(t *testing.T) {
	spec := seq.CorpusSpec{
		Sequences: 12, Length: 80, Seed: 3,
		Motifs: []seq.PlantedMotif{{Pattern: "WWHHWWHH", Carriers: 6}},
	}
	seqs := spec.Generate()
	params := Params{MinOccur: 4, MaxMut: 0, MinLength: 4, MaxLength: 8}

	mk := func() *Problem { return NewProblem(seqs, params) }
	seqRes, _ := core.SolveSequential(mk())
	ettRes, _ := core.SolveETTSequential(mk())
	edtRes, _ := core.SolveEDT(mk(), 4)
	pettRes, _ := core.SolveETT(mk(), 4, core.LoadBalanced)

	want := strings.Join(keys(seqRes), " ")
	for name, got := range map[string][]core.Result{
		"ETT": ettRes, "PEDT": edtRes, "PETT": pettRes,
	} {
		if strings.Join(keys(got), " ") != want {
			t.Fatalf("%s diverged:\n%v\nvs\n%v", name, keys(got), keys(seqRes))
		}
	}
}

func TestPlantedMotifRecoveredWithMutations(t *testing.T) {
	spec := seq.CorpusSpec{
		Sequences: 15, Length: 100, Seed: 9,
		Motifs: []seq.PlantedMotif{{Pattern: "ACDEFGHIKL", Carriers: 10, MutRate: 0.1}},
	}
	seqs := spec.Generate()
	res := Discover(seqs, Params{MinOccur: 8, MaxMut: 2, MinLength: 8, MaxLength: 10})
	found := false
	for _, r := range res {
		if strings.Contains("ACDEFGHIKL", r.Pattern.Key()) && r.Pattern.Len() >= 8 {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted motif not recovered; got %v", keys(res))
	}
}

func TestSubpatternPruningSkipsMatcherRuns(t *testing.T) {
	spec := seq.CorpusSpec{
		Sequences: 10, Length: 120, Seed: 5,
		Motifs: []seq.PlantedMotif{{Pattern: "MMMMWWWW", Carriers: 6}},
	}
	seqs := spec.Generate()
	params := Params{MinOccur: 5, MaxMut: 1, MinLength: 5, MaxLength: 8}

	plain := NewProblem(seqs, params)
	resPlain, _ := core.SolveETTSequential(plain)
	pruned := NewProblem(seqs, params)
	pruned.SubpatternPruning = true
	resPruned, _ := core.SolveETTSequential(pruned)

	if strings.Join(keys(plain.ActiveMotifs(resPlain)), " ") !=
		strings.Join(keys(pruned.ActiveMotifs(resPruned)), " ") {
		t.Fatal("pruning changed the discovered motifs")
	}
	ranPlain, _ := plain.MatcherRuns()
	ranPruned, skipped := pruned.MatcherRuns()
	if skipped == 0 || ranPruned >= ranPlain {
		t.Fatalf("pruning saved nothing: plain=%d pruned=%d skipped=%d",
			ranPlain, ranPruned, skipped)
	}
}

// TestMatcherRunsPinned pins MatcherRuns with pruning off and on: the
// counts are the number of matcher runs the E-tree traversal makes and
// the number the heuristic saves, independent of how Goodness locks.
func TestMatcherRunsPinned(t *testing.T) {
	seqs := seq.CorpusSpec{
		Sequences: 10, Length: 120, Seed: 5,
		Motifs: []seq.PlantedMotif{{Pattern: "MMMMWWWW", Carriers: 6}},
	}.Generate()
	params := Params{MinOccur: 5, MaxMut: 1, MinLength: 5, MaxLength: 8}
	for _, c := range []struct {
		prune        bool
		ran, skipped int
	}{{false, 2566, 0}, {true, 2529, 37}} {
		pr := NewProblem(seqs, params)
		pr.SubpatternPruning = c.prune
		core.SolveETTSequential(pr)
		if ran, skipped := pr.MatcherRuns(); ran != c.ran || skipped != c.skipped {
			t.Errorf("pruning %v: MatcherRuns = (%d, %d), want (%d, %d)",
				c.prune, ran, skipped, c.ran, c.skipped)
		}
		if !c.prune && len(pr.cache) != 0 {
			t.Errorf("pruning off: %d patterns cached, want none", len(pr.cache))
		}
	}
}

func TestPLETDiscoversSameMotifs(t *testing.T) {
	seqs := seq.CorpusSpec{
		Sequences: 8, Length: 60, Seed: 11,
		Motifs: []seq.PlantedMotif{{Pattern: "QQQYYY", Carriers: 5}},
	}.Generate()
	params := Params{MinOccur: 4, MaxMut: 0, MinLength: 3, MaxLength: 6}
	pr := NewProblem(seqs, params)
	seqRes, _ := core.SolveSequential(NewProblem(seqs, params))

	srv := plinda.NewServer()
	defer srv.Close()
	res, err := core.RunPLET(srv, pr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(keys(pr.ActiveMotifs(res)), " ") !=
		strings.Join(keys(pr.ActiveMotifs(seqRes)), " ") {
		t.Fatalf("PLET diverged")
	}
}

func TestGoodnessOfRootIsAllSequences(t *testing.T) {
	pr := NewProblem(toySeqs, Params{MinOccur: 2, MinLength: 2})
	if g := pr.Goodness(pr.Root()); g != 5 {
		t.Fatalf("root goodness %v", g)
	}
}

func TestCostGrowsWithLength(t *testing.T) {
	pr := NewProblem(toySeqs, Params{MinOccur: 2, MinLength: 2})
	a, _ := pr.Decode("RR")
	b, _ := pr.Decode("RRRR")
	if pr.Cost(b) <= pr.Cost(a) {
		t.Fatal("cost should grow with pattern length")
	}
	if pr.Cost(pr.Root()) != 0 {
		t.Fatal("root costs nothing")
	}
}

func BenchmarkDiscoverSmallCorpus(b *testing.B) {
	seqs := seq.CorpusSpec{
		Sequences: 10, Length: 80, Seed: 2,
		Motifs: []seq.PlantedMotif{{Pattern: "ACACACAC", Carriers: 6}},
	}.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Discover(seqs, Params{MinOccur: 5, MaxMut: 0, MinLength: 4, MaxLength: 8})
	}
}
