package features

import (
	"math"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// This file is the scoring path of the inference hot loop: the three
// kernels that price every tentative move of ICM, block ICM and the
// annealed sweeps. RegionCandScores and EventCandScores compute
// w·LocalRegionFeatures / w·LocalEventFeatures for every candidate of
// one node; RegionRunDelta computes the feature change of relabeling a
// region run as a block. They read two kinds of memo:
//
//   - label-independent ones, filled by SeqContext.Reset: the fsm
//     overlap arena, the extractor's fst kernel exp(−γst·E[dI]), the
//     three possible fec values of every edge, and the fsc value of
//     every edge for each pair of its records' candidates;
//   - the label-dependent run index of the context's Labeling
//     (runindex.go): run extents, event-change counts, and the distinct
//     regions of every event run with their first and last occurrence.
//
// The fes and fss cliques span whole same-event and same-region runs,
// but no kernel walks a run: every sub-run statistic is an integer read
// off the index, so a node evaluation costs O(candidates · D), D being
// the distinct regions of the runs around the node, whatever the runs'
// lengths. (RegionRunDelta's fsm and fsc terms still add one value per
// record of the block: they are float sums whose order is part of the
// result.)
//
// Exactness is the contract. Every count — distinct regions, runs,
// changes, turns — is formed as an integer first and then fed to the
// reference float expression, and sub-run triples are accumulated left
// to right as the reference decomposes them, so the scores — and
// therefore every inference decision — are bitwise-identical to
// LocalRegionFeatures, LocalEventFeatures and the TotalFeatures
// difference. The property tests of this package and the core
// reference tests pin this.

// Dot returns w·f accumulated in index order. It mirrors the reference
// dot product exactly so fused scores match assembling the feature
// vector first.
func Dot(w, f []float64) float64 {
	s := 0.0
	for i := range w {
		s += w[i] * f[i]
	}
	return s
}

// Labeling returns the context's Labeling, whose run index the kernels
// read. Reset empties it; a caller writes its configuration with the
// Labeling's Reset and setters and passes its Regions and Events to the
// kernels.
func (c *SeqContext) Labeling() *Labeling { return &c.lab }

// labels returns the context's Labeling as the run index of (R, E).
// Its own label slices are recognised at no cost. Any other pair is
// copied in with Reset and recognised on later calls until a setter
// runs or the context is Reset: a caller that scores the nodes of a
// configuration held in its own slices pays one O(n) index build, and
// must not write those slices in between.
func (c *SeqContext) labels(R []indoor.RegionID, E []seq.Event) *Labeling {
	if !c.lab.names(R, E) {
		c.lab.Reset(R, E)
	}
	return &c.lab
}

// scoreScratch returns the Dim-length assembly buffer, zeroed.
func (c *SeqContext) scoreScratch() []float64 {
	buf := c.scoreBuf
	if cap(buf) < Dim {
		buf = make([]float64, Dim)
		c.scoreBuf = buf
	} else {
		buf = buf[:Dim]
	}
	for k := range buf {
		buf[k] = 0
	}
	return buf
}

// fastST is ST(i, ra, rb) through the precomputed distance kernel.
func (c *SeqContext) fastST(i int, ra, rb indoor.RegionID) float64 {
	var v float64
	switch {
	case ra == rb:
		v = 1.0
	case ra < 0 || rb < 0:
		return 0
	default:
		if st := c.Ex.stExp; st != nil {
			v = st[int(ra)*c.Ex.nr+int(rb)]
		} else {
			d := c.Ex.Space.RegionDist(ra, rb)
			if math.IsInf(d, 1) {
				return 0
			}
			v = math.Exp(-c.Ex.Params.GammaST * d)
		}
		if v == 0 {
			// Unreachable pair (or underflow, which the reference path
			// also scores 0 after the decay multiply).
			return 0
		}
	}
	if len(c.stDecay) > 0 {
		v *= c.stDecay[i]
	}
	return v
}

// scDirect is SC(i, ra, rb) with the decay multiplier memoized.
func (c *SeqContext) scDirect(i int, ra, rb indoor.RegionID) float64 {
	d := c.Ex.Space.RegionDist(ra, rb)
	if math.IsInf(d, 1) {
		return 0
	}
	v := math.Exp(-math.Abs(d - c.dist[i]))
	if len(c.scDecay) > 0 {
		v *= c.scDecay[i]
	}
	return v
}

// scAt is SC(i, ra, rb), given ka and kb, the positions of ra in
// Candidates[i] and of rb in Candidates[i+1] (−1 when absent): the memo
// for a candidate pair, the direct expression otherwise.
func (c *SeqContext) scAt(i int, ra, rb indoor.RegionID, ka, kb int) float64 {
	if ka >= 0 && kb >= 0 {
		return c.scMemo[int(c.scOff[i])+ka*len(c.Candidates[i+1])+kb]
	}
	return c.scDirect(i, ra, rb)
}

// candIndex returns the position of r in cands, or −1.
func candIndex(cands []indoor.RegionID, r indoor.RegionID) int {
	for k, x := range cands {
		if x == r {
			return k
		}
	}
	return -1
}

// changeAt is 1 when the event label changes between records x and x+1.
func changeAt(E []seq.Event, x int) int {
	if E[x] != E[x+1] {
		return 1
	}
	return 0
}

// ssAdd adds into out — or with neg subtracts from it — the fss triple
// of the space-based run [x, y] holding the given number of event
// changes, by the expressions of SS.
func ssAdd(E []seq.Event, x, y, changes int, neg bool, out *[3]float64) {
	runLen := float64(y - x + 1)
	v0 := -float64(changes+1) / runLen
	v1 := -float64(changes) / runLen
	v2 := (passInd(E[x]) + passInd(E[y])) / 2
	if neg {
		out[0] -= v0
		out[1] -= v1
		out[2] -= v2
		return
	}
	out[0] += v0
	out[1] += v1
	out[2] += v2
}

// ssWindow runs ssAdd, left to right, over the space-based runs that
// three uniform pieces form: [A, a−1], the middle [a, b] and [b+1, B]
// (an outer piece is absent when A == a or b == B), holding cL, cM and
// cR event changes. The middle joins the left piece when mergeL and the
// right one when mergeR.
func ssWindow(E []seq.Event, A, a, b, B, cL, cM, cR int, mergeL, mergeR, neg bool, out *[3]float64) {
	x, ch := a, cM
	if a > A {
		if mergeL {
			x, ch = A, cL+changeAt(E, a-1)+cM
		} else {
			ssAdd(E, A, a-1, cL, neg, out)
		}
	}
	if b < B && mergeR {
		ssAdd(E, x, B, ch+changeAt(E, b)+cR, neg, out)
		return
	}
	ssAdd(E, x, b, ch, neg, out)
	if b < B {
		ssAdd(E, b+1, B, cR, neg, out)
	}
}

// esAdd adds into out the fes triple of the event-based run [x, y]
// carrying event e, by the expressions of ES with the distinct-region
// count read off the index.
func (c *SeqContext) esAdd(l *Labeling, x, y int, e seq.Event, out *[3]float64) {
	sign := 2*passInd(e) - 1
	runLen := float64(y - x + 1)
	out[0] += sign * float64(l.distinctIn(x, y)) / runLen
	out[1] += sign * c.segSpeedNorm(x, y)
	out[2] += -sign * float64(c.segTurns(x, y)) / runLen
}

// RegionCandScores fills scores[k] with w·LocalRegionFeatures(R, E, i,
// Candidates[i][k]) for every candidate of record i, bitwise-identical
// to the reference path. scores must have len(Candidates[i]) entries.
// R and E are read through the context's run index (see Labeling).
func (c *SeqContext) RegionCandScores(w []float64, R []indoor.RegionID, E []seq.Event, i int, scores []float64) {
	c.regionScores(w, R, E, i, c.Candidates[i], true, scores)
}

// RegionScore returns w·LocalRegionFeatures(R, E, i, r) for any label
// r, a candidate of record i or not, bitwise-identical to the reference
// path: the score of a current label that a block move brought in from
// a neighbour's candidates.
func (c *SeqContext) RegionScore(w []float64, R []indoor.RegionID, E []seq.Event, i int, r indoor.RegionID) float64 {
	var labels [1]indoor.RegionID
	var score [1]float64
	labels[0] = r
	c.regionScores(w, R, E, i, labels[:], false, score[:])
	return score[0]
}

// regionScores fills scores[j] with the score of labels[j] at node i.
// cands says labels is Candidates[i], so that j is a label's position
// in the fsm and fsc memos without a search.
func (c *SeqContext) regionScores(w []float64, R []indoor.RegionID, E []seq.Event, i int, labels []indoor.RegionID, cands bool, scores []float64) {
	if len(labels) == 0 {
		return
	}
	l := c.labels(R, E)
	n := c.Len()
	cl := c.Ex.Params.Cliques
	buf := c.scoreScratch()
	hasM := cl.Has(Matching)
	hasT := cl.Has(Transition)
	hasS := cl.Has(Synchronization)

	// fsc: the neighbours' positions in their candidate sets select the
	// memo rows.
	kPrev, kNext := -1, -1
	if hasS {
		if i > 0 {
			kPrev = candIndex(c.Candidates[i-1], R[i-1])
		}
		if i+1 < n {
			kNext = candIndex(c.Candidates[i+1], R[i+1])
		}
	}

	// fes: the same-event run around i. Only the distinct-region count
	// depends on the candidate: the run's regions with record i left
	// out, plus the candidate unless it is among them. R[i] itself stays
	// among them unless its first and last occurrence are both i.
	esOn := cl.Has(SegmentationES)
	var (
		esSign, esRunLen, esV1, esV2 float64
		esRun                        []occurrence
		esD                          int
		curElsewhere                 bool
	)
	if esOn {
		a, b := l.EventRun(i)
		esSign = 2*passInd(E[i]) - 1
		esRunLen = float64(b - a + 1)
		esV1 = esSign * c.segSpeedNorm(a, b)
		esV2 = -esSign * float64(c.segTurns(a, b)) / esRunLen
		esRun = l.runDistinct(a)
		for _, o := range esRun {
			if o.reg == int32(R[i]) {
				curElsewhere = int(o.first) != i || int(o.last) != i
				break
			}
		}
		esD = len(esRun)
		if !curElsewhere {
			esD--
		}
	}

	// fss window [A, B]: the region runs of i−1 and i+1. A candidate's
	// sub-run decomposition depends only on whether it merges with its
	// left or right neighbour — at most four distinct value triples,
	// each computed lazily once.
	ssOn := cl.Has(SegmentationSS)
	var (
		ssA, ssB, cL, cR int
		ssSet            [4]bool
		ssVals           [4][3]float64
	)
	if ssOn {
		ssA, ssB = i, i
		if i > 0 {
			ssA, _ = l.RegionRun(i - 1)
			cL = int(l.chg[i-1])
		}
		if i+1 < n {
			_, ssB = l.RegionRun(i + 1)
			cR = int(l.chg[ssB] - l.chg[i+1])
		}
	}

	for j, r := range labels {
		k := j
		if !cands {
			k = candIndex(c.Candidates[i], r)
		}
		if hasM {
			if k >= 0 {
				buf[IdxSM] = c.overlapAt(i, k) * c.prior(r)
			} else {
				buf[IdxSM] = c.SM(i, r)
			}
		}
		if hasT {
			st := 0.0
			if i > 0 {
				st += c.fastST(i-1, R[i-1], r)
			}
			if i+1 < n {
				st += c.fastST(i, r, R[i+1])
			}
			buf[IdxST] = st
		}
		if hasS {
			sc := 0.0
			if i > 0 {
				sc += c.scAt(i-1, R[i-1], r, kPrev, k)
			}
			if i+1 < n {
				sc += c.scAt(i, r, R[i+1], k, kNext)
			}
			buf[IdxSC] = sc
		}
		if esOn {
			in := curElsewhere
			if r != R[i] {
				in = false
				for _, o := range esRun {
					if o.reg == int32(r) {
						in = true
						break
					}
				}
			}
			distinct := esD
			if !in {
				distinct++
			}
			buf[IdxES] = esSign * float64(distinct) / esRunLen
			buf[IdxES+1] = esV1
			buf[IdxES+2] = esV2
		}
		if ssOn {
			ck := 0
			if i > ssA && R[i-1] == r {
				ck |= 1
			}
			if i < ssB && R[i+1] == r {
				ck |= 2
			}
			if !ssSet[ck] {
				ssSet[ck] = true
				ssWindow(E, ssA, i, i, ssB, cL, 0, cR, ck&1 != 0, ck&2 != 0, false, &ssVals[ck])
			}
			buf[IdxSS] = ssVals[ck][0]
			buf[IdxSS+1] = ssVals[ck][1]
			buf[IdxSS+2] = ssVals[ck][2]
		}
		scores[j] = Dot(w, buf)
	}
}

// passCountIdx maps an event pair to its fec memo slot:
// passInd(ea)+passInd(eb) ∈ {0, 1, 2}.
func passCountIdx(ea, eb seq.Event) int {
	n := 0
	if ea == seq.Pass {
		n++
	}
	if eb == seq.Pass {
		n++
	}
	return n
}

// EventCandScores fills scores[e] with w·LocalEventFeatures(R, E, i, e)
// for e = 0..NumEvents−1, bitwise-identical to the reference path.
// scores must have seq.NumEvents entries. R and E are read through the
// context's run index (see Labeling).
func (c *SeqContext) EventCandScores(w []float64, R []indoor.RegionID, E []seq.Event, i int, scores []float64) {
	l := c.labels(R, E)
	n := c.Len()
	cl := c.Ex.Params.Cliques
	buf := c.scoreScratch()
	hasM := cl.Has(Matching)
	hasT := cl.Has(Transition)
	hasS := cl.Has(Synchronization)
	esOn := cl.Has(SegmentationES)
	ssOn := cl.Has(SegmentationSS)

	// fes window [esA, esB]: the event runs of i−1 and i+1.
	var esA, esB int
	if esOn {
		esA, esB = i, i
		if i > 0 {
			esA, _ = l.EventRun(i - 1)
		}
		if i+1 < n {
			_, esB = l.EventRun(i + 1)
		}
	}
	// fss: the region run of i, whose event changes other than the two
	// edges at i do not depend on the candidate.
	var ssa, ssb, ssChanges int
	if ssOn {
		ssa, ssb = l.RegionRun(i)
		ssChanges = int(l.chg[ssb])
		if i > ssa {
			ssChanges -= changeAt(E, i-1)
		}
		if i < ssb {
			ssChanges -= changeAt(E, i)
		}
	}

	for ei := 0; ei < seq.NumEvents; ei++ {
		e := seq.Event(ei)
		if hasM {
			buf[IdxEM] = c.EM(i, e)
		}
		if hasT {
			et := 0.0
			if i > 0 {
				et += c.ET(E[i-1], e)
			}
			if i+1 < n {
				et += c.ET(e, E[i+1])
			}
			buf[IdxET] = et
		}
		if hasS {
			ec := 0.0
			if i > 0 {
				ec += c.ecExp[3*(i-1)+passCountIdx(E[i-1], e)]
			}
			if i+1 < n {
				ec += c.ecExp[3*i+passCountIdx(e, E[i+1])]
			}
			buf[IdxEC] = ec
		}
		if esOn {
			// Sub-runs with e at i: [esA, i−1], {i} and [i+1, esB], the
			// middle joining a neighbour that carries e.
			var v [3]float64
			x := i
			if i > esA {
				if E[i-1] == e {
					x = esA
				} else {
					c.esAdd(l, esA, i-1, E[i-1], &v)
				}
			}
			if i < esB && E[i+1] == e {
				c.esAdd(l, x, esB, e, &v)
			} else {
				c.esAdd(l, x, i, e, &v)
				if i < esB {
					c.esAdd(l, i+1, esB, E[i+1], &v)
				}
			}
			buf[IdxES], buf[IdxES+1], buf[IdxES+2] = v[0], v[1], v[2]
		}
		if ssOn {
			changes := ssChanges
			if i > ssa && E[i-1] != e {
				changes++
			}
			if i < ssb && e != E[i+1] {
				changes++
			}
			runs := 1 + changes
			runLen := float64(ssb - ssa + 1)
			evA, evB := E[ssa], E[ssb]
			if ssa == i {
				evA = e
			}
			if ssb == i {
				evB = e
			}
			buf[IdxSS] = -float64(runs) / runLen
			buf[IdxSS+1] = -float64(changes) / runLen
			buf[IdxSS+2] = (passInd(evA) + passInd(evB)) / 2
		}
		scores[ei] = Dot(w, buf)
	}
}

// RegionRunDelta writes into out (length Dim) the feature change
// f(P, R', E) − f(P, R, E) of the block move that relabels the uniform
// segment [a, b] (every R[x], a ≤ x ≤ b, carries the same label) to r.
// The segment must be right-maximal (b == n−1 or R[b+1] ≠ R[b]); the
// left neighbour may carry the same label, as happens when a preceding
// run was just merged into this one. R is not modified; R and E are
// read through the context's run index (see Labeling).
//
// Cliques not containing a relabeled node contribute identically to
// both configurations and cancel, so the delta is taken over the
// block's Markov blanket: the fsm and fsc terms of its records, its two
// boundary fst edges, the event runs it overlaps and the region runs
// beside it.
func (c *SeqContext) RegionRunDelta(R []indoor.RegionID, E []seq.Event, a, b int, r indoor.RegionID, out []float64) {
	for k := range out {
		out[k] = 0
	}
	orig := R[a]
	if r == orig {
		return
	}
	l := c.labels(R, E)
	n := c.Len()
	cl := c.Ex.Params.Cliques
	if cl.Has(Matching) {
		for i := a; i <= b; i++ {
			out[IdxSM] += c.SM(i, r) - c.SM(i, orig)
		}
	}
	if cl.Has(Transition) {
		// Interior edges pair identical labels on both sides of the move
		// and fst(x, x) is label-independent: only the boundaries change.
		if a > 0 {
			out[IdxST] += c.fastST(a-1, R[a-1], r) - c.fastST(a-1, R[a-1], orig)
		}
		if b+1 < n {
			out[IdxST] += c.fastST(b, r, R[b+1]) - c.fastST(b, orig, R[b+1])
		}
	}
	if cl.Has(Synchronization) {
		// fsc(x, x) depends on the intra-region distance, so interior
		// edges are rescored along with the boundaries. kr/ko track the
		// positions of r and orig in the current record's candidates.
		cands := c.Candidates
		kr, ko := candIndex(cands[a], r), candIndex(cands[a], orig)
		if a > 0 {
			kp := candIndex(cands[a-1], R[a-1])
			out[IdxSC] += c.scAt(a-1, R[a-1], r, kp, kr) - c.scAt(a-1, R[a-1], orig, kp, ko)
		}
		for i := a; i < b; i++ {
			kr2, ko2 := candIndex(cands[i+1], r), candIndex(cands[i+1], orig)
			out[IdxSC] += c.scAt(i, r, r, kr, kr2) - c.scAt(i, orig, orig, ko, ko2)
			kr, ko = kr2, ko2
		}
		if b+1 < n {
			kn := candIndex(cands[b+1], R[b+1])
			out[IdxSC] += c.scAt(b, r, R[b+1], kr, kn) - c.scAt(b, orig, R[b+1], ko, kn)
		}
	}
	if cl.Has(SegmentationES) {
		// Every event run overlapping [a, b] gains r unless it already
		// holds it, and loses orig when all of orig's occurrences in it
		// fall inside the block. The speed and turn components cancel.
		x, _ := l.EventRun(a)
		for ; x <= b; x = int(l.erun[x]) + 1 {
			y := int(l.erun[x])
			lo, hi := max(x, a), min(y, b)
			d := l.runDistinct(x)
			dOld, dNew := len(d), len(d)+1
			for _, o := range d {
				if o.reg == int32(orig) && int(o.first) >= lo && int(o.last) <= hi {
					dNew--
				}
				if o.reg == int32(r) {
					dNew--
				}
			}
			sign := 2*passInd(E[x]) - 1
			runLen := float64(y - x + 1)
			out[IdxES] += sign*float64(dNew)/runLen - sign*float64(dOld)/runLen
		}
	}
	if cl.Has(SegmentationSS) {
		// The block can merge with the region runs beside it; runs
		// outside that window keep their boundaries. The old window's
		// triples are subtracted, then the new one's added.
		A, B, cL, cR := a, b, 0, 0
		if a > 0 {
			A, _ = l.RegionRun(a - 1)
			cL = int(l.chg[a-1] - l.chg[A])
		}
		if b+1 < n {
			_, B = l.RegionRun(b + 1)
			cR = int(l.chg[B] - l.chg[b+1])
		}
		cM := int(l.chg[b] - l.chg[a])
		ss := (*[3]float64)(out[IdxSS : IdxSS+3])
		ssWindow(E, A, a, b, B, cL, cM, cR, a > 0 && R[a-1] == orig, b+1 < n && R[b+1] == orig, true, ss)
		ssWindow(E, A, a, b, B, cL, cM, cR, a > 0 && R[a-1] == r, b+1 < n && R[b+1] == r, false, ss)
	}
}
