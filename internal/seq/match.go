package seq

import "strings"

// Motif is a VLDC pattern *S1*S2*...*Sk*: segments separated by
// variable length don't cares. In matching, each * substitutes for
// zero or more letters; segments may mutate (insert, delete,
// mismatch) within a total budget.
type Motif struct {
	Segments []string
}

// ParseMotif parses the "*SEG*SEG*" notation.
func ParseMotif(s string) Motif {
	var segs []string
	for _, part := range strings.Split(s, "*") {
		if part != "" {
			segs = append(segs, part)
		}
	}
	return Motif{Segments: segs}
}

// String renders the motif in VLDC notation.
func (m Motif) String() string {
	if len(m.Segments) == 0 {
		return "*"
	}
	return "*" + strings.Join(m.Segments, "*") + "*"
}

// Len is |P|: the number of non-VLDC letters.
func (m Motif) Len() int {
	n := 0
	for _, s := range m.Segments {
		n += len(s)
	}
	return n
}

// MatchesWithin reports whether the motif matches the sequence within
// at most mut mutations after an optimal substitution for the VLDCs.
// A mutation is an insertion, a deletion, or a mismatch, all unit
// cost. For each segment the match is semi-global (the flanking VLDCs
// absorb any letters of s), and segments must match in order at
// non-overlapping, left-to-right positions; the mutation budget is
// shared across segments.
func (m Motif) MatchesWithin(s string, mut int) bool {
	if m.Len() == 0 {
		return true
	}
	return compile(m).matches(s, mut)
}

// OccurrenceNo is occurrence_no^mut_S(P): the number of sequences in
// the set that contain the motif within mut mutations. The motif is
// compiled once and its matcher state reused for every sequence.
func (m Motif) OccurrenceNo(seqs []string, mut int) int {
	if m.Len() == 0 {
		return len(seqs)
	}
	k := compile(m)
	c := 0
	for _, s := range seqs {
		if k.matches(s, mut) {
			c++
		}
	}
	return c
}

// The matcher computes the edit DP that defines MatchesWithin with
// the bit-parallel algorithm of Myers (1999) in Hyyro's block-chained
// form. Conceptually the segments are stacked into one DP table: a
// row per motif letter, a column per letter of s. Column 0 holds
// i mutations at the i-th letter (deletions); the row above segment 0
// is all zeros (the leading VLDC lets a match start anywhere), and the
// row above segment g>0 is the prefix minimum of segment g-1's final
// row (the VLDC between them lets segment g start anywhere after
// segment g-1 ended). The kernel never stores a row: each block of up
// to 64 rows keeps the column's vertical deltas as two bit vectors,
// and one sweep over s advances every block per column, passing the
// horizontal delta of its bottom row down as the next block's
// carry-in. Each segment tracks its final-row score and that score's
// running minimum; the minimum's step (0 or -1, since neighbouring
// cells of a row differ by at most 1) is the carry into the next
// segment's first block.

// block is up to 64 consecutive rows of one segment.
type block struct {
	peq [256]uint64 // peq[c]: bit i set when row i's letter is c
	top uint        // bit index of the block's bottom row
	pv  uint64      // rows whose vertical delta is +1 in this column
	mv  uint64      // rows whose vertical delta is -1 in this column
}

// segment is one motif segment's blocks and its running scores.
type segment struct {
	blocks []block
	len    int
	score  int // final-row cost of a match ending at this column
	best   int // minimum of score over the columns so far
}

// matcher is a compiled motif: its non-empty segments in order.
type matcher []segment

// compile builds the matcher of a motif with Len() > 0. Empty segments
// match the empty string at no cost, so they are dropped.
func compile(m Motif) matcher {
	nb, ns := 0, 0
	for _, seg := range m.Segments {
		if seg != "" {
			nb += (len(seg) + 63) / 64
			ns++
		}
	}
	blocks := make([]block, nb)
	k := make(matcher, 0, ns)
	for _, seg := range m.Segments {
		if seg == "" {
			continue
		}
		n := (len(seg) + 63) / 64
		sb := blocks[:n:n]
		blocks = blocks[n:]
		for b := range sb {
			rows := seg[b*64 : min(b*64+64, len(seg))]
			for i := 0; i < len(rows); i++ {
				sb[b].peq[rows[i]] |= 1 << i
			}
			sb[b].top = uint(len(rows) - 1)
		}
		k = append(k, segment{blocks: sb, len: len(seg)})
	}
	return k
}

// matches reports whether the compiled motif occurs in s within mut
// mutations. It resets the matcher's state, so one matcher serves any
// number of sequences.
//
// The horizontal delta passed down a column is a pair of bits: hp is 1
// for +1 and hn is 1 for -1. Each block advances by Myers' step with
// Hyyro's carry-in. The step has no branches: the deltas depend on the
// data, so branches on them would mispredict.
func (k matcher) matches(s string, mut int) bool {
	// Column 0: every row so far is a deletion.
	before := 0
	for g := range k {
		sg := &k[g]
		for b := range sg.blocks {
			sg.blocks[b].pv, sg.blocks[b].mv = ^uint64(0), 0
		}
		before += sg.len
		sg.score, sg.best = before, before
	}
	if before <= mut {
		return true
	}
	last := &k[len(k)-1]
	for j := 0; j < len(s); j++ {
		c := s[j]
		var hp, hn uint64 // segment 0's carry-in: the row above it is constant
		for g := range k {
			sg := &k[g]
			for b := range sg.blocks {
				bl := &sg.blocks[b]
				pv, mv := bl.pv, bl.mv
				eq := bl.peq[c]
				xv := eq | mv
				eq |= hn
				xh := (((eq & pv) + pv) ^ pv) | eq
				ph := mv | ^(xh | pv)
				mh := pv & xh
				ph, hp = ph<<1|hp, ph>>bl.top&1
				mh, hn = mh<<1|hn, mh>>bl.top&1
				bl.pv = mh | ^(xv | ph)
				bl.mv = ph & xv
			}
			sg.score += int(hp) - int(hn)
			// The running best falls by one exactly when the score
			// drops below it; that step is the next segment's carry.
			hp, hn = 0, uint64(sg.score-sg.best)>>63
			sg.best -= int(hn)
		}
		// best only falls, so the first column at which the last
		// segment's best is within budget decides the answer.
		if last.best <= mut {
			return true
		}
	}
	return false
}

// EditDistance is the unit-cost Levenshtein distance, exposed for the
// property tests of the matcher.
func EditDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			sub := prev[j-1]
			if a[i-1] != b[j-1] {
				sub++
			}
			v := sub
			if prev[j]+1 < v {
				v = prev[j] + 1
			}
			if cur[j-1]+1 < v {
				v = cur[j-1] + 1
			}
			cur[j] = v
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
