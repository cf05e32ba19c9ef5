package seq

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestGSTSeqCountToyExample(t *testing.T) {
	// The toy database of section 2.3.1.
	seqs := []string{"FFRR", "MRRM", "MTRM", "DPKY", "AVLG"}
	g := BuildGST(seqs)
	cases := []struct {
		seg  string
		want int
	}{
		{"RR", 2}, {"RM", 2}, {"FFRR", 1}, {"M", 2}, {"Z", 0}, {"", 5}, {"RRM", 1},
	}
	for _, c := range cases {
		if got := g.SeqCount(c.seg); got != c.want {
			t.Errorf("SeqCount(%q)=%d want %d", c.seg, got, c.want)
		}
	}
}

func TestGSTMatchesNaiveCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seqs := RandomSequences(12, 60, rng)
	g := BuildGST(seqs)
	for i := 0; i < 200; i++ {
		s := seqs[rng.Intn(len(seqs))]
		a := rng.Intn(len(s))
		b := a + 1 + rng.Intn(8)
		if b > len(s) {
			b = len(s)
		}
		seg := s[a:b]
		if got, want := g.SeqCount(seg), NaiveSeqCount(seqs, seg); got != want {
			t.Fatalf("SeqCount(%q)=%d want %d", seg, got, want)
		}
	}
}

// Property: for random segment queries (present or not), GST count
// equals the naive count.
func TestPropertyGSTCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seqs := RandomSequences(8, 40, rng)
	g := BuildGST(seqs)
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 6 {
			return true
		}
		var b strings.Builder
		for _, r := range raw {
			b.WriteByte(Alphabet[int(r)%len(Alphabet)])
		}
		seg := b.String()
		return g.SeqCount(seg) == NaiveSeqCount(seqs, seg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGSTExtensions(t *testing.T) {
	seqs := []string{"FFRR", "MRRM", "MTRM"}
	g := BuildGST(seqs)
	// Extensions of "R": RR (FFRR, MRRM) and RM (MRRM, MTRM).
	exts := g.Extensions("R", 1)
	if string(exts) != "MR" {
		t.Fatalf("Extensions(R)=%q want \"MR\"", exts)
	}
	// With minSeqs 2 both survive; with 3 neither.
	if got := g.Extensions("R", 2); string(got) != "MR" {
		t.Fatalf("Extensions(R,2)=%q", got)
	}
	if got := g.Extensions("R", 3); len(got) != 0 {
		t.Fatalf("Extensions(R,3)=%q", got)
	}
	// Top-level extensions are the distinct first letters.
	top := g.Extensions("", 1)
	if string(top) != "FMRT" {
		t.Fatalf("Extensions('')=%q", top)
	}
}

func TestGSTSegments(t *testing.T) {
	seqs := []string{"ABCDE", "XBCDY", "BCDZZ"}
	g := BuildGST(seqs)
	segs := g.Segments(3, 3)
	if len(segs) != 1 || segs[0] != "BCD" {
		t.Fatalf("Segments(3,3)=%v", segs)
	}
	if segs := g.Segments(2, 3); len(segs) != 2 { // BC, CD
		t.Fatalf("Segments(2,3)=%v", segs)
	}
}

func TestMotifParseAndString(t *testing.T) {
	m := ParseMotif("*RR*")
	if len(m.Segments) != 1 || m.Segments[0] != "RR" || m.Len() != 2 {
		t.Fatalf("%+v", m)
	}
	if m.String() != "*RR*" {
		t.Fatalf("String %q", m.String())
	}
	two := ParseMotif("*AB*CD*")
	if len(two.Segments) != 2 || two.Len() != 4 {
		t.Fatalf("%+v", two)
	}
}

func TestMatchesWithinExact(t *testing.T) {
	m := ParseMotif("*RR*")
	if !m.MatchesWithin("FFRR", 0) || !m.MatchesWithin("MRRM", 0) {
		t.Fatal("exact match failed")
	}
	if m.MatchesWithin("MTRM", 0) {
		t.Fatal("false positive")
	}
	if got := m.OccurrenceNo([]string{"FFRR", "MRRM", "MTRM", "DPKY", "AVLG"}, 0); got != 2 {
		t.Fatalf("occurrence %d want 2 (section 2.3.1)", got)
	}
}

func TestMatchesWithinMutations(t *testing.T) {
	m := ParseMotif("*ACDEF*")
	if !m.MatchesWithin("xxACDEFyy", 0) {
		t.Fatal("exact substring")
	}
	if !m.MatchesWithin("xxACGEFyy", 1) { // mismatch
		t.Fatal("one mismatch within 1")
	}
	if m.MatchesWithin("xxACGEFyy", 0) {
		t.Fatal("mismatch without budget")
	}
	if !m.MatchesWithin("xxACDEyy", 1) { // deletion of F
		t.Fatal("one deletion within 1")
	}
	if !m.MatchesWithin("xxACWDEFyy", 1) { // insertion
		t.Fatal("one insertion within 1")
	}
	if m.MatchesWithin("xxAWWEFyy", 1) {
		t.Fatal("two mismatches within 1")
	}
}

func TestMultiSegmentOrdering(t *testing.T) {
	m := ParseMotif("*AB*CD*")
	if !m.MatchesWithin("xxAByyCDzz", 0) {
		t.Fatal("ordered segments should match")
	}
	if m.MatchesWithin("xxCDyyABzz", 0) {
		t.Fatal("segments out of order must not match exactly")
	}
	// Adjacent segments (empty VLDC) are allowed.
	if !m.MatchesWithin("ABCD", 0) {
		t.Fatal("adjacent segments")
	}
}

// matchesWithinDP is the row-by-row edit DP that defined
// MatchesWithin before the bit-parallel kernel replaced it. It stays
// as the oracle of the differential tests: the kernel must agree with
// it on every input.
func matchesWithinDP(m Motif, s string, mut int) bool {
	if m.Len() == 0 {
		return true
	}
	// state[j] = minimal mutations spent so far for a parse of the
	// segments consumed so far that ends at or before position j of s.
	// Process segments in order; for each, run a semi-global edit DP
	// whose start positions are the allowed continuation points.
	n := len(s)
	const inf = 1 << 30
	// best[j]: minimal cost to have matched the segments so far with
	// the last match ending at position <= j (prefix-min form).
	best := make([]int, n+1)
	for j := range best {
		best[j] = 0 // zero segments matched costs nothing, any start
	}
	cur := make([]int, n+1)
	prev := make([]int, n+1)
	for _, seg := range m.Segments {
		mlen := len(seg)
		// prev/cur rows of the edit DP over the segment (rows) and s
		// (cols). Row 0: starting a match at position j costs best[j]
		// (mutations already spent before this segment).
		for j := 0; j <= n; j++ {
			prev[j] = best[j]
		}
		nextBest := make([]int, n+1)
		for j := range nextBest {
			nextBest[j] = inf
		}
		for i := 1; i <= mlen; i++ {
			cur[0] = prev[0] + 1 // deletion of segment letter
			for j := 1; j <= n; j++ {
				sub := prev[j-1]
				if seg[i-1] != s[j-1] {
					sub++
				}
				del := prev[j] + 1 // delete segment letter
				ins := cur[j-1] + 1
				v := sub
				if del < v {
					v = del
				}
				if ins < v {
					v = ins
				}
				cur[j] = v
			}
			prev, cur = cur, prev
		}
		// prev now holds the final row: cost of matching this segment
		// ending exactly at position j. Convert to prefix-min for the
		// next segment's free start (the * between them).
		run := inf
		for j := 0; j <= n; j++ {
			if prev[j] < run {
				run = prev[j]
			}
			nextBest[j] = run
		}
		best = nextBest
	}
	return best[n] <= mut
}

// Property: single-segment semi-global matching is consistent with
// edit distance: if some substring has edit distance <= mut the motif
// matches, and conversely.
func TestPropertySemiGlobalVsEditDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(segRaw, sRaw []uint8, mutRaw uint8) bool {
		if len(segRaw) == 0 || len(segRaw) > 5 || len(sRaw) == 0 || len(sRaw) > 12 {
			return true
		}
		mut := int(mutRaw % 3)
		mk := func(raw []uint8) string {
			var b strings.Builder
			for _, r := range raw {
				b.WriteByte(Alphabet[int(r)%4]) // small alphabet: collisions likely
			}
			return b.String()
		}
		seg, s := mk(segRaw), mk(sRaw)
		m := Motif{Segments: []string{seg}}
		want := false
		for i := 0; i <= len(s) && !want; i++ {
			for j := i; j <= len(s); j++ {
				if EditDistance(seg, s[i:j]) <= mut {
					want = true
					break
				}
			}
		}
		return m.MatchesWithin(s, mut) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: the subpattern antimonotonicity of section 2.3.4 — a
// right-extension of a motif never occurs in more sequences.
func TestPropertyExtensionAntimonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seqs := RandomSequences(10, 50, rng)
	f := func(raw []uint8, mutRaw uint8) bool {
		if len(raw) < 2 || len(raw) > 6 {
			return true
		}
		var b strings.Builder
		for _, r := range raw {
			b.WriteByte(Alphabet[int(r)%6])
		}
		seg := b.String()
		mut := int(mutRaw % 3)
		short := Motif{Segments: []string{seg[:len(seg)-1]}}
		long := Motif{Segments: []string{seg}}
		return long.OccurrenceNo(seqs, mut) <= short.OccurrenceNo(seqs, mut)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCyclinsCorpusShape(t *testing.T) {
	spec := CyclinsSpec(42)
	seqs := spec.Generate()
	if len(seqs) != 47 {
		t.Fatalf("%d sequences", len(seqs))
	}
	avg := AverageLength(seqs)
	if avg < 360 || avg > 440 {
		t.Fatalf("average length %.0f, want ~400", avg)
	}
	// The exactly conserved planted motifs must be recoverable.
	g := BuildGST(seqs)
	for _, m := range spec.Motifs {
		if m.MutRate == 0 && len(m.VarPositions) == 0 {
			if got := g.SeqCount(m.Pattern); got < m.Carriers {
				t.Errorf("planted motif %q found in %d sequences, want >= %d",
					m.Pattern, got, m.Carriers)
			}
		}
	}
	// The position-degenerate motifs should be found by mutation-
	// tolerant search: each copy differs at the variable positions, so
	// allow one mutation per variable column.
	deg := spec.Motifs[3]
	m := Motif{Segments: []string{deg.Pattern}}
	if occ := m.OccurrenceNo(seqs, len(deg.VarPositions)); occ < deg.Carriers*3/4 {
		t.Errorf("degenerate motif occurs in %d sequences, want >= %d", occ, deg.Carriers*3/4)
	}
}

func TestFormatFasta(t *testing.T) {
	out := FormatFasta("cyc", []string{strings.Repeat("A", 70)})
	if !strings.HasPrefix(out, ">cyc_A\n") || !strings.Contains(out, "\nAAAAAAAAAA\n") {
		t.Fatalf("fasta:\n%s", out)
	}
}

func TestEditDistanceBasics(t *testing.T) {
	if EditDistance("kitten", "sitting") != 3 {
		t.Fatal("kitten/sitting")
	}
	if EditDistance("", "abc") != 3 || EditDistance("abc", "") != 3 {
		t.Fatal("empty cases")
	}
	if EditDistance("same", "same") != 0 {
		t.Fatal("identity")
	}
}

func BenchmarkBuildGSTCyclins(b *testing.B) {
	seqs := CyclinsSpec(1).Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildGST(seqs)
	}
}

func BenchmarkOccurrenceNoMut4(b *testing.B) {
	seqs := CyclinsSpec(1).Generate()
	m := ParseMotif("*SLEYKLLPETLYLAISY*")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.OccurrenceNo(seqs, 4)
	}
}
