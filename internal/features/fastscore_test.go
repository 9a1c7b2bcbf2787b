package features

import (
	"math/rand"
	"testing"

	"c2mn/internal/cluster"
	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// randConfig draws a random labeling: regions from the candidate sets
// most of the time, but sometimes an arbitrary region (as block moves
// produce) or NoRegion, so the kernels are exercised on every label
// shape the inference loop can feed them.
func randConfig(rng *rand.Rand, c *SeqContext, numRegions int) ([]indoor.RegionID, []seq.Event) {
	n := c.Len()
	R := make([]indoor.RegionID, n)
	E := make([]seq.Event, n)
	for i := 0; i < n; i++ {
		switch {
		case len(c.Candidates[i]) > 0 && rng.Float64() < 0.7:
			R[i] = c.Candidates[i][rng.Intn(len(c.Candidates[i]))]
		case rng.Float64() < 0.1:
			R[i] = indoor.NoRegion
		default:
			R[i] = indoor.RegionID(rng.Intn(numRegions))
		}
		E[i] = seq.Event(rng.Intn(seq.NumEvents))
	}
	return R, E
}

// TestFusedScoresBitwiseIdentical pins the indexed kernels against the
// reference LocalRegionFeatures/LocalEventFeatures + Dot composition:
// the scores must match bit for bit across random configurations,
// clique ablations, time-decay variants and region priors.
func TestFusedScoresBitwiseIdentical(t *testing.T) {
	space := testSpace(t)
	paramSets := []Params{
		testParams(),
		func() Params { p := testParams(); p.TimeDecayST = 0.01; p.TimeDecaySC = 0.02; return p }(),
		func() Params { p := testParams(); p.Cliques = Matching | Transition; return p }(),
		func() Params { p := testParams(); p.Cliques = SegmentationES | SegmentationSS; return p }(),
		func() Params { p := testParams(); p.RegionPrior = []float64{1, 0.5, 0.25}; return p }(),
	}
	rng := rand.New(rand.NewSource(99))
	for pi, params := range paramSets {
		ex, err := NewExtractor(space, params)
		if err != nil {
			t.Fatal(err)
		}
		ctx := ex.NewSeqContext(walkSequence(), nil)
		w := make([]float64, Dim)
		buf := make([]float64, Dim)
		for trial := 0; trial < 40; trial++ {
			for k := range w {
				w[k] = rng.NormFloat64()
			}
			L := ctx.Labeling()
			L.Reset(randConfig(rng, ctx, space.NumRegions()))
			R, E := L.Regions(), L.Events()
			for i := 0; i < ctx.Len(); i++ {
				cands := ctx.Candidates[i]
				scores := make([]float64, len(cands))
				ctx.RegionCandScores(w, R, E, i, scores)
				for k, r := range cands {
					ctx.LocalRegionFeatures(R, E, i, r, buf)
					if want := Dot(w, buf); scores[k] != want {
						t.Fatalf("params %d trial %d node %d cand %v: fused %v, reference %v",
							pi, trial, i, r, scores[k], want)
					}
				}
				ev := make([]float64, seq.NumEvents)
				ctx.EventCandScores(w, R, E, i, ev)
				for e := 0; e < seq.NumEvents; e++ {
					ctx.LocalEventFeatures(R, E, i, seq.Event(e), buf)
					if want := Dot(w, buf); ev[e] != want {
						t.Fatalf("params %d trial %d node %d event %d: fused %v, reference %v",
							pi, trial, i, e, ev[e], want)
					}
				}
			}
		}
	}
}

// TestFusedScoresHandAssembledExtractor covers the fallback branches:
// an Extractor built without NewExtractor has no geometry cache and no
// fst kernel matrix, and the fused path must still agree with the
// reference bit for bit.
func TestFusedScoresHandAssembledExtractor(t *testing.T) {
	space := testSpace(t)
	ex := &Extractor{Space: space, Params: testParams()}
	ctx := ex.NewSeqContext(walkSequence(), nil)
	rng := rand.New(rand.NewSource(3))
	w := make([]float64, Dim)
	for k := range w {
		w[k] = rng.NormFloat64()
	}
	buf := make([]float64, Dim)
	L := ctx.Labeling()
	L.Reset(randConfig(rng, ctx, space.NumRegions()))
	R, E := L.Regions(), L.Events()
	for i := 0; i < ctx.Len(); i++ {
		cands := ctx.Candidates[i]
		scores := make([]float64, len(cands))
		ctx.RegionCandScores(w, R, E, i, scores)
		for k, r := range cands {
			ctx.LocalRegionFeatures(R, E, i, r, buf)
			if want := Dot(w, buf); scores[k] != want {
				t.Fatalf("node %d cand %v: fused %v, reference %v", i, r, scores[k], want)
			}
		}
	}
}

// TestExtractorSTKernel checks the precomputed fst kernel against the
// ST feature function on every region pair.
func TestExtractorSTKernel(t *testing.T) {
	space := testSpace(t)
	p := testParams()
	p.Cluster = cluster.Params{EpsS: 3, EpsT: 30, MinPts: 3}
	ex, err := NewExtractor(space, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := ex.NewSeqContext(walkSequence(), nil)
	nr := space.NumRegions()
	for a := 0; a < nr; a++ {
		for b := 0; b < nr; b++ {
			want := ctx.ST(0, indoor.RegionID(a), indoor.RegionID(b))
			got := ctx.fastST(0, indoor.RegionID(a), indoor.RegionID(b))
			if got != want {
				t.Fatalf("fastST(%d,%d) = %v, ST = %v", a, b, got, want)
			}
		}
	}
	if got := ctx.fastST(0, indoor.NoRegion, 0); got != 0 {
		t.Fatalf("fastST(NoRegion, 0) = %v, want 0", got)
	}
}

// TestSCMemoMatchesSC checks the per-edge fsc memo against the SC
// feature function on every candidate pair, with and without time
// decay, and the direct fallback for labels outside the candidates.
func TestSCMemoMatchesSC(t *testing.T) {
	space := testSpace(t)
	decay := testParams()
	decay.TimeDecaySC = 0.02
	for _, params := range []Params{testParams(), decay} {
		ex, err := NewExtractor(space, params)
		if err != nil {
			t.Fatal(err)
		}
		ctx := ex.NewSeqContext(walkSequence(), nil)
		for i := 0; i+1 < ctx.Len(); i++ {
			for ka, ra := range ctx.Candidates[i] {
				for kb, rb := range ctx.Candidates[i+1] {
					if got, want := ctx.scAt(i, ra, rb, ka, kb), ctx.SC(i, ra, rb); got != want {
						t.Fatalf("edge %d (%v,%v): memo %v, SC %v", i, ra, rb, got, want)
					}
				}
			}
			for r := indoor.NoRegion; int(r) < space.NumRegions(); r++ {
				ka, kb := candIndex(ctx.Candidates[i], r), candIndex(ctx.Candidates[i+1], 0)
				if got, want := ctx.scAt(i, r, 0, ka, kb), ctx.SC(i, r, 0); got != want {
					t.Fatalf("edge %d (%v,0): %v, SC %v", i, r, got, want)
				}
			}
		}
	}
}
