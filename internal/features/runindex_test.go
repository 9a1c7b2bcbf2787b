package features

import (
	"fmt"
	"math/rand"
	"testing"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// longDwellSequence fabricates n records that dwell for long stretches
// in rooms A, B and C and the hallway of testSpace, with short walks
// between the stays.
func longDwellSequence(rng *rand.Rand, n int) *seq.PSequence {
	spots := [][2]float64{{5, 9}, {15, 9}, {25, 9}, {15, 2}}
	p := &seq.PSequence{ObjectID: "dwell"}
	t := 0.0
	for len(p.Records) < n {
		s := spots[rng.Intn(len(spots))]
		stay := 80 + rng.Intn(120)
		for k := 0; k < stay && len(p.Records) < n; k++ {
			t += 5 + 5*rng.Float64()
			x, y := s[0]+rng.NormFloat64(), s[1]+0.6*rng.NormFloat64()
			p.Records = append(p.Records, seq.Record{Loc: indoor.Loc(x, y, 0), T: t})
		}
		for k := 0; k < 3 && len(p.Records) < n; k++ {
			t += 2
			p.Records = append(p.Records, seq.Record{Loc: indoor.Loc(2+26*rng.Float64(), 2, 0), T: t})
		}
	}
	return p
}

// longDwellLabels draws labels whose event runs hold 100–160 records,
// each split into region sub-runs over at least three distinct regions,
// NoRegion among them.
func longDwellLabels(rng *rand.Rand, n, numRegions int) ([]indoor.RegionID, []seq.Event) {
	R := make([]indoor.RegionID, 0, n)
	E := make([]seq.Event, 0, n)
	ev := seq.Event(rng.Intn(seq.NumEvents))
	for len(R) < n {
		run := 100 + rng.Intn(61)
		perm := rng.Perm(numRegions)
		for sub := 0; run > 0 && len(R) < n; sub++ {
			r := indoor.RegionID(rng.Intn(numRegions+1)) - 1 // NoRegion included
			if sub < 3 {
				r = indoor.RegionID(perm[sub])
			}
			for k := 3 + rng.Intn(28); k > 0 && run > 0 && len(R) < n; k-- {
				R = append(R, r)
				E = append(E, ev)
				run--
			}
		}
		ev = 1 - ev
	}
	return R, E
}

// checkIndex asserts that l's run index equals a fresh Reset of its
// labels.
func checkIndex(t *testing.T, l *Labeling, what string) {
	t.Helper()
	var f Labeling
	f.Reset(l.Regions(), l.Events())
	for x := 0; x < l.Len(); x++ {
		if l.rrun[x] != f.rrun[x] || l.erun[x] != f.erun[x] {
			t.Fatalf("%s: run entries of %d = R %d E %d, fresh R %d E %d",
				what, x, l.rrun[x], l.erun[x], f.rrun[x], f.erun[x])
		}
		if l.chg[x] != f.chg[x] {
			t.Fatalf("%s: chg[%d] = %d, fresh %d", what, x, l.chg[x], f.chg[x])
		}
		if s, _ := f.EventRun(x); s != x {
			continue
		}
		got, want := l.runDistinct(x), f.runDistinct(x)
		if len(got) != len(want) {
			t.Fatalf("%s: event run %d holds %d distinct regions, fresh %d", what, x, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: event run %d slot %d = %+v, fresh %+v", what, x, k, got[k], want[k])
			}
		}
	}
}

// checkKernels asserts that both candidate kernels at node i, and
// RegionScore on every label, are bitwise-equal to the reference
// feature functions dotted with w.
func checkKernels(t *testing.T, c *SeqContext, w []float64, i int, what string) {
	t.Helper()
	l := c.Labeling()
	R, E := l.Regions(), l.Events()
	buf := make([]float64, Dim)
	scores := make([]float64, len(c.Candidates[i]))
	c.RegionCandScores(w, R, E, i, scores)
	for k, r := range c.Candidates[i] {
		c.LocalRegionFeatures(R, E, i, r, buf)
		if want := Dot(w, buf); scores[k] != want {
			t.Fatalf("%s: node %d region %v scores %v, reference %v", what, i, r, scores[k], want)
		}
	}
	for r := indoor.NoRegion; int(r) < c.Ex.Space.NumRegions(); r++ {
		c.LocalRegionFeatures(R, E, i, r, buf)
		if got, want := c.RegionScore(w, R, E, i, r), Dot(w, buf); got != want {
			t.Fatalf("%s: node %d label %v scores %v, reference %v", what, i, r, got, want)
		}
	}
	ev := make([]float64, seq.NumEvents)
	c.EventCandScores(w, R, E, i, ev)
	for e := range ev {
		c.LocalEventFeatures(R, E, i, seq.Event(e), buf)
		if want := Dot(w, buf); ev[e] != want {
			t.Fatalf("%s: node %d event %d scores %v, reference %v", what, i, e, ev[e], want)
		}
	}
}

// checkRunDelta asserts that RegionRunDelta for relabeling [a, b] to r
// is bitwise-equal to the run-walking reference and matches the
// difference of two full feature passes.
func checkRunDelta(t *testing.T, c *SeqContext, a, b int, r indoor.RegionID, what string) {
	t.Helper()
	l := c.Labeling()
	R, E := l.Regions(), l.Events()
	got := make([]float64, Dim)
	want := make([]float64, Dim)
	c.RegionRunDelta(R, E, a, b, r, got)
	referenceRunDelta(c, R, E, a, b, r, want)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: block [%d,%d]→%v component %d = %v, reference %v", what, a, b, r, k, got[k], want[k])
		}
	}
	R2 := append([]indoor.RegionID(nil), R...)
	for x := a; x <= b; x++ {
		R2[x] = r
	}
	assertClose(t, got, totalDiff(c, R, E, R2, E), what+": block delta vs full recompute")
}

// TestLabelingIndexUnderLongRuns applies seeded random region, event
// and block moves to long-dwell configurations and checks after every
// move that the incrementally maintained index equals a fresh one and
// that the kernels around the move — and at random nodes — still agree
// bit for bit with the reference feature functions.
func TestLabelingIndexUnderLongRuns(t *testing.T) {
	space := testSpace(t)
	decay := testParams()
	decay.TimeDecayST, decay.TimeDecaySC = 0.01, 0.02
	rng := rand.New(rand.NewSource(12))
	for pi, params := range []Params{testParams(), decay} {
		ex, err := NewExtractor(space, params)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 2; trial++ {
			c := ex.NewSeqContext(longDwellSequence(rng, 400+rng.Intn(200)), nil)
			n := c.Len()
			w := make([]float64, Dim)
			for k := range w {
				w[k] = rng.NormFloat64()
			}
			l := c.Labeling()
			l.Reset(longDwellLabels(rng, n, space.NumRegions()))
			checkIndex(t, l, "reset")
			label := func(i int) indoor.RegionID {
				switch cands := c.Candidates[i]; {
				case len(cands) > 0 && rng.Float64() < 0.7:
					return cands[rng.Intn(len(cands))]
				case rng.Float64() < 0.3:
					return indoor.NoRegion
				default:
					return indoor.RegionID(rng.Intn(space.NumRegions()))
				}
			}
			for move := 0; move < 150; move++ {
				i := rng.Intn(n)
				a, b := i, i
				switch op := rng.Intn(10); {
				case op < 5:
					l.SetRegion(i, label(i))
				case op < 7:
					l.SetEvent(i, seq.Event(rng.Intn(seq.NumEvents)))
				default:
					// A right-maximal block, often starting inside its
					// run as blockICM's merged runs do.
					s, e := l.RegionRun(i)
					a, b = s+rng.Intn(e-s+1), e
					r := label(a)
					checkRunDelta(t, c, a, b, r, "before block move")
					l.SetBlock(a, b, r)
				}
				what := fmt.Sprintf("params %d trial %d move %d", pi, trial, move)
				checkIndex(t, l, what)
				for x := max(0, a-2); x <= b+2 && x < n; x++ {
					checkKernels(t, c, w, x, what)
				}
				for k := 0; k < 4; k++ {
					checkKernels(t, c, w, rng.Intn(n), what)
				}
			}
			// Every run of the final configuration prices block moves
			// exactly.
			for a := 0; a < n; {
				_, b := l.RegionRun(a)
				checkRunDelta(t, c, a, b, label(a), "final runs")
				a = b + 1
			}
		}
	}
}

// TestKernelsAdoptCallerSlices covers callers that hold a configuration
// in their own slices: the first kernel call indexes them, later calls
// reuse the index, and SeqContext.Reset forgets it.
func TestKernelsAdoptCallerSlices(t *testing.T) {
	c := newCtx(t)
	rng := rand.New(rand.NewSource(5))
	w := make([]float64, Dim)
	for k := range w {
		w[k] = rng.NormFloat64()
	}
	R, E := randomConfig(c, rng)
	scores := make([]float64, 8)
	c.EventCandScores(w, R, E, 0, scores[:seq.NumEvents])
	if !c.lab.names(R, E) {
		t.Fatal("the kernel did not index the caller's slices")
	}
	for i := 0; i < c.Len(); i++ {
		checkKernels(t, c, w, i, "adopted")
	}
	c.Reset(c.P, nil)
	if c.lab.names(R, E) {
		t.Fatal("SeqContext.Reset kept the previous sequence's labeling")
	}
}

// referenceRunDelta is RegionRunDelta as the reference feature
// functions define it, walking every run the block touches.
func referenceRunDelta(c *SeqContext, R []indoor.RegionID, E []seq.Event, a, b int, r indoor.RegionID, out []float64) {
	for k := range out {
		out[k] = 0
	}
	orig := R[a]
	if r == orig {
		return
	}
	n := c.Len()
	reg := func(x int) indoor.RegionID {
		if x >= a && x <= b {
			return r
		}
		return R[x]
	}
	ev := func(z int) seq.Event { return E[z] }
	for i := a; i <= b; i++ {
		out[IdxSM] += c.SM(i, r) - c.SM(i, orig)
	}
	if a > 0 {
		out[IdxST] += c.ST(a-1, R[a-1], r) - c.ST(a-1, R[a-1], orig)
		out[IdxSC] += c.SC(a-1, R[a-1], r) - c.SC(a-1, R[a-1], orig)
	}
	for i := a; i < b; i++ {
		out[IdxSC] += c.SC(i, r, r) - c.SC(i, orig, orig)
	}
	if b+1 < n {
		out[IdxST] += c.ST(b, r, R[b+1]) - c.ST(b, orig, R[b+1])
		out[IdxSC] += c.SC(b, r, R[b+1]) - c.SC(b, orig, R[b+1])
	}
	var vNew, vOld [3]float64
	for x := runStartEvent(E, a); x <= runEndEvent(E, b); {
		y := runEndEvent(E, x)
		c.ES(x, y, E[x], reg, &vNew)
		c.ES(x, y, E[x], func(z int) indoor.RegionID { return R[z] }, &vOld)
		for k := 0; k < 3; k++ {
			out[IdxES+k] += vNew[k] - vOld[k]
		}
		x = y + 1
	}
	A, B := a, b
	if a > 0 {
		A = runStartRegion(R, a-1)
	}
	if b+1 < n {
		B = runEndRegion(R, b+1)
	}
	for pass, label := range []func(int) indoor.RegionID{func(z int) indoor.RegionID { return R[z] }, reg} {
		for x := A; x <= B; {
			y := x
			for y+1 <= B && label(y+1) == label(x) {
				y++
			}
			c.SS(x, y, ev, &vOld)
			for k := 0; k < 3; k++ {
				if pass == 0 {
					out[IdxSS+k] -= vOld[k]
				} else {
					out[IdxSS+k] += vOld[k]
				}
			}
			x = y + 1
		}
	}
}
