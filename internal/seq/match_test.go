package seq

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// FuzzMatchesWithin checks the bit-parallel kernel against the DP
// oracle. pattern is split on '*' into the motif's segments, empty
// ones included; the checked-in corpus under testdata/fuzz covers
// 1-4 segments, segments that span several 64-row blocks, an empty
// sequence, and budgets at or beyond the motif's length.
func FuzzMatchesWithin(f *testing.F) {
	f.Fuzz(func(t *testing.T, pattern, s string, mut int) {
		if len(pattern) > 600 || len(s) > 1200 {
			return // keep the quadratic oracle fast
		}
		m := Motif{Segments: strings.Split(pattern, "*")}
		if got, want := m.MatchesWithin(s, mut), matchesWithinDP(m, s, mut); got != want {
			t.Fatalf("MatchesWithin(%q, mut=%d) on %q = %v, DP says %v", pattern, mut, s, got, want)
		}
	})
}

// mutate applies up to k random unit mutations to seg over alphabet.
func mutate(rng *rand.Rand, seg, alphabet string, k int) string {
	b := []byte(seg)
	for ; k > 0; k-- {
		c := alphabet[rng.Intn(len(alphabet))]
		i := rng.Intn(len(b) + 1)
		switch op := rng.Intn(3); {
		case op == 0 || len(b) == 0: // insertion
			b = append(b[:i], append([]byte{c}, b[i:]...)...)
		case op == 1 && i < len(b): // mismatch
			b[i] = c
		case i < len(b): // deletion
			b = append(b[:i], b[i+1:]...)
		}
	}
	return string(b)
}

func randomString(rng *rand.Rand, alphabet string, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// TestMatchesWithinAgreesWithDP is a seeded differential test: motifs
// of 1-4 segments of 1-140 letters, sequences carrying mutated copies
// of the segments in random order between random filler, and budgets
// from 0 to 60, so the answers fall on both sides of the boundary.
func TestMatchesWithinAgreesWithDP(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases, matched := 1500, 0
	for i := 0; i < cases; i++ {
		alphabet := Alphabet[:2+rng.Intn(len(Alphabet)-1)]
		segs := make([]string, 1+rng.Intn(4))
		for g := range segs {
			n := 1 + rng.Intn(24)
			if rng.Intn(3) == 0 {
				n = 60 + rng.Intn(81)
			}
			segs[g] = randomString(rng, alphabet, n)
		}
		var s strings.Builder
		for _, g := range rng.Perm(len(segs)) {
			s.WriteString(randomString(rng, alphabet, rng.Intn(40)))
			if rng.Intn(4) != 0 {
				s.WriteString(mutate(rng, segs[g], alphabet, rng.Intn(8)))
			}
		}
		s.WriteString(randomString(rng, alphabet, rng.Intn(40)))
		m := Motif{Segments: segs}
		mut := rng.Intn(61)
		got, want := m.MatchesWithin(s.String(), mut), matchesWithinDP(m, s.String(), mut)
		if got != want {
			t.Fatalf("case %d: MatchesWithin(%v, mut=%d) on %q = %v, DP says %v",
				i, segs, mut, s.String(), got, want)
		}
		if got {
			matched++
		}
	}
	// Both answers must be well represented, or the test proves little.
	if matched < cases/5 || matched > cases*4/5 {
		t.Fatalf("%d of %d cases matched: the generator is lopsided", matched, cases)
	}
}

// coarsePatterns enumerates the E-tree of motif discovery setting 2
// (Occur 12, Mut 4, MaxLength 24, MinSeedSeqs 3) over the Cyclins
// corpus at seed 42, the way the motif package's Problem does: a good
// pattern's children are its right extensions that occur exactly in
// at least 3 sequences. It returns every evaluated pattern with the
// occurrence number count gives it.
func coarsePatterns(seqs []string, count func(Motif) int) map[string]int {
	const minOccur, maxLength, minSeedSeqs = 12, 24, 3
	g := BuildGST(seqs)
	occ := map[string]int{}
	frontier := []string{""}
	for len(frontier) > 0 {
		p := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if len(p) >= maxLength {
			continue
		}
		for _, c := range g.Extensions(p, minSeedSeqs) {
			child := p + string(c)
			n := count(Motif{Segments: []string{child}})
			occ[child] = n
			if n >= minOccur {
				frontier = append(frontier, child)
			}
		}
	}
	return occ
}

// TestCoarsePatternsAgreeWithDP runs the kernel and the oracle over
// every pattern the setting-2 discovery evaluates on the Cyclins
// corpus (4,806 of them) and requires identical occurrence numbers.
func TestCoarsePatternsAgreeWithDP(t *testing.T) {
	seqs := CyclinsSpec(42).Generate()
	occ := coarsePatterns(seqs, func(m Motif) int { return m.OccurrenceNo(seqs, 4) })
	if len(occ) != 4806 {
		t.Fatalf("setting 2 evaluates %d patterns, want 4806", len(occ))
	}
	for p, got := range occ {
		m := Motif{Segments: []string{p}}
		want := 0
		for _, s := range seqs {
			if matchesWithinDP(m, s, 4) {
				want++
			}
		}
		if got != want {
			t.Fatalf("OccurrenceNo(*%s*, 4) = %d, DP says %d", p, got, want)
		}
	}
}

// TestOccurrenceNoAllocs pins the matcher's allocation budget: one
// compiled motif per call, whatever the number or the length of the
// sequences. The DP it replaced allocated four rows per sequence
// (188 allocations and 631,808 B per call on the Cyclins corpus).
func TestOccurrenceNoAllocs(t *testing.T) {
	seqs := CyclinsSpec(1).Generate()
	long := make([]string, len(seqs))
	for i, s := range seqs {
		long[i] = strings.Repeat(s, 4)
	}
	corpora := map[string][]string{
		"cyclins":         seqs,
		"4x sequences":    append(append(append(append([]string{}, seqs...), seqs...), seqs...), seqs...),
		"4x longer":       long,
		"empty sequences": make([]string, 100),
	}
	motifs := map[string]Motif{
		"one block":  ParseMotif("*SLEYKLLPETLYLAISY*"),
		"two blocks": {Segments: []string{strings.Repeat("SLEYKLLPETLYLAISY", 5)}},
		"3 segments": ParseMotif("*SLEYK*LLPET*LYLAISY*"),
	}
	for mname, m := range motifs {
		// The budget depends only on the motif's shape: the blocks
		// array and the segments array.
		const wantAllocs = 2
		wantBytes := -1
		for cname, c := range corpora {
			allocs, bytes := allocsAndBytes(func() { m.OccurrenceNo(c, 4) })
			if allocs != wantAllocs {
				t.Errorf("%s on %s: OccurrenceNo = %v allocs/call, want %d", mname, cname, allocs, wantAllocs)
			}
			if wantBytes < 0 {
				wantBytes = bytes
			} else if bytes != wantBytes {
				t.Errorf("%s on %s: OccurrenceNo = %d B/call, other corpora %d", mname, cname, bytes, wantBytes)
			}
			s := strings.Join(c, "")
			if allocs, _ := allocsAndBytes(func() { m.MatchesWithin(s, 4) }); allocs != wantAllocs {
				t.Errorf("%s on %s: MatchesWithin = %v allocs/call, want %d", mname, cname, allocs, wantAllocs)
			}
		}
		nb := 0
		for _, seg := range m.Segments {
			nb += (len(seg) + 63) / 64
		}
		if wantBytes > 2560*nb+64*len(m.Segments) {
			t.Errorf("%s: OccurrenceNo = %d B/call, want at most 2.5 KiB per 64-letter block", mname, wantBytes)
		}
	}
}

// allocsAndBytes is testing.AllocsPerRun plus the bytes allocated per
// run, measured the same way: whole units per run, after a warm-up.
func allocsAndBytes(f func()) (allocs float64, bytes int) {
	const runs = 10
	allocs = testing.AllocsPerRun(runs, f)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, int((after.TotalAlloc - before.TotalAlloc) / runs)
}
