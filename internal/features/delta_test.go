package features

import (
	"math"
	"math/rand"
	"testing"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// randomConfig draws a random label configuration: regions from each
// record's candidate set (occasionally a neighbour's candidate, as
// block moves produce), events uniform.
func randomConfig(ctx *SeqContext, rng *rand.Rand) ([]indoor.RegionID, []seq.Event) {
	n := ctx.Len()
	R := make([]indoor.RegionID, n)
	E := make([]seq.Event, n)
	for i := 0; i < n; i++ {
		cands := ctx.Candidates[i]
		if rng.Intn(4) == 0 && i > 0 {
			cands = ctx.Candidates[i-1]
		}
		if len(cands) == 0 {
			R[i] = indoor.NoRegion
		} else {
			R[i] = cands[rng.Intn(len(cands))]
		}
		E[i] = seq.Event(rng.Intn(seq.NumEvents))
	}
	return R, E
}

func totalDiff(ctx *SeqContext, R1 []indoor.RegionID, E1 []seq.Event, R2 []indoor.RegionID, E2 []seq.Event) []float64 {
	f1 := make([]float64, Dim)
	f2 := make([]float64, Dim)
	ctx.TotalFeatures(R1, E1, f1)
	ctx.TotalFeatures(R2, E2, f2)
	for k := range f2 {
		f2[k] -= f1[k]
	}
	return f2
}

func assertClose(t *testing.T, got, want []float64, what string) {
	t.Helper()
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("%s: component %d = %.12g, want %.12g", what, k, got[k], want[k])
		}
	}
}

// TestRegionRunDeltaMatchesFullRecompute is the core exactness
// property of the incremental scorer: for randomized configurations
// and every right-maximal uniform segment and candidate label, the
// Markov-blanket delta must equal the difference of two full feature
// passes.
func TestRegionRunDeltaMatchesFullRecompute(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(42))
	n := ctx.Len()
	delta := make([]float64, Dim)
	for trial := 0; trial < 50; trial++ {
		R, E := randomConfig(ctx, rng)
		for a := 0; a < n; {
			b := a
			for b+1 < n && R[b+1] == R[a] {
				b++
			}
			for r := indoor.RegionID(0); r < 3; r++ {
				ctx.RegionRunDelta(R, E, a, b, r, delta)
				R2 := append([]indoor.RegionID(nil), R...)
				for y := a; y <= b; y++ {
					R2[y] = r
				}
				assertClose(t, delta, totalDiff(ctx, R, E, R2, E), "run delta")
			}
			a = b + 1
		}
	}
}

// TestRegionRunDeltaLeftNonMaximal covers the segment shape blockICM
// produces when a relabeled run merges with its left neighbour: the
// segment is uniform and right-maximal but R[a-1] carries the same
// label.
func TestRegionRunDeltaLeftNonMaximal(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(7))
	n := ctx.Len()
	delta := make([]float64, Dim)
	for trial := 0; trial < 50; trial++ {
		R, E := randomConfig(ctx, rng)
		// Force a left-equal boundary: pick a mid segment and copy the
		// left neighbour's label onto it.
		a := 1 + rng.Intn(n-2)
		b := a + rng.Intn(n-a-1)
		for y := a; y <= b; y++ {
			R[y] = R[a-1]
		}
		// Re-derive right-maximality.
		for b+1 < n && R[b+1] == R[a] {
			b++
		}
		for r := indoor.RegionID(0); r < 3; r++ {
			ctx.RegionRunDelta(R, E, a, b, r, delta)
			R2 := append([]indoor.RegionID(nil), R...)
			for y := a; y <= b; y++ {
				R2[y] = r
			}
			assertClose(t, delta, totalDiff(ctx, R, E, R2, E), "left-non-maximal run delta")
		}
	}
}

// TestSingleMoveDeltasMatchFullRecompute checks the single-node moves
// the candidate kernels price: the score difference between a node's
// candidate and its current label must equal w applied to the
// difference of two full feature passes.
func TestSingleMoveDeltasMatchFullRecompute(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(99))
	n := ctx.Len()
	w := make([]float64, Dim)
	scores := make([]float64, 8)
	for trial := 0; trial < 30; trial++ {
		for k := range w {
			w[k] = rng.NormFloat64()
		}
		L := ctx.Labeling()
		L.Reset(randomConfig(ctx, rng))
		R, E := L.Regions(), L.Events()
		for i := 0; i < n; i++ {
			cands := ctx.Candidates[i]
			if cur := candIndex(cands, R[i]); cur >= 0 {
				ctx.RegionCandScores(w, R, E, i, scores[:len(cands)])
				for k, r := range cands {
					R2 := append([]indoor.RegionID(nil), R...)
					R2[i] = r
					want := Dot(w, totalDiff(ctx, R, E, R2, E))
					if got := scores[k] - scores[cur]; math.Abs(got-want) > 1e-9 {
						t.Fatalf("trial %d node %d: region move to %v = %.12g, want %.12g", trial, i, r, got, want)
					}
				}
			}
			ctx.EventCandScores(w, R, E, i, scores[:seq.NumEvents])
			for e := 0; e < seq.NumEvents; e++ {
				E2 := append([]seq.Event(nil), E...)
				E2[i] = seq.Event(e)
				want := Dot(w, totalDiff(ctx, R, E, R, E2))
				if got := scores[e] - scores[E[i]]; math.Abs(got-want) > 1e-9 {
					t.Fatalf("trial %d node %d: event move to %d = %.12g, want %.12g", trial, i, e, got, want)
				}
			}
		}
	}
}

// TestSeqContextResetMatchesFresh asserts the reset-and-reuse
// lifecycle: a context re-bound across several sequences must be
// indistinguishable from a freshly built one, including after
// shrinking to a shorter sequence.
func TestSeqContextResetMatchesFresh(t *testing.T) {
	ex, err := NewExtractor(testSpace(t), testParams())
	if err != nil {
		t.Fatal(err)
	}
	long := walkSequence()
	short := &seq.PSequence{ObjectID: "s", Records: long.Records[3:9]}
	reused := &SeqContext{Ex: ex}
	rng := rand.New(rand.NewSource(3))
	for round, p := range []*seq.PSequence{long, short, long, walkSequence()} {
		reused.Reset(p, nil)
		fresh := ex.NewSeqContext(p, nil)
		n := fresh.Len()
		if reused.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, reused.Len(), n)
		}
		for i := 0; i < n; i++ {
			if reused.Density[i] != fresh.Density[i] {
				t.Fatalf("round %d: Density[%d] differs", round, i)
			}
			if len(reused.Candidates[i]) != len(fresh.Candidates[i]) {
				t.Fatalf("round %d: candidate count[%d] differs", round, i)
			}
			for k, r := range fresh.Candidates[i] {
				if reused.Candidates[i][k] != r {
					t.Fatalf("round %d: Candidates[%d][%d] differs", round, i, k)
				}
			}
		}
		// Feature outputs must agree on random configurations.
		for trial := 0; trial < 5; trial++ {
			R, E := randomConfig(fresh, rng)
			fa := make([]float64, Dim)
			fb := make([]float64, Dim)
			reused.TotalFeatures(R, E, fa)
			fresh.TotalFeatures(R, E, fb)
			assertClose(t, fa, fb, "reset TotalFeatures")
			for i := 0; i < n; i++ {
				reused.LocalRegionFeatures(R, E, i, R[i], fa)
				fresh.LocalRegionFeatures(R, E, i, R[i], fb)
				assertClose(t, fa, fb, "reset LocalRegionFeatures")
			}
		}
	}
}

// TestSeqContextResetTruth checks that truth labels are still force-
// included in candidate sets through the arena-backed Reset path.
func TestSeqContextResetTruth(t *testing.T) {
	ex, err := NewExtractor(testSpace(t), testParams())
	if err != nil {
		t.Fatal(err)
	}
	p := walkSequence()
	truth := make([]indoor.RegionID, p.Len())
	for i := range truth {
		truth[i] = indoor.RegionID(i % 3) // often not a natural candidate
	}
	c := &SeqContext{Ex: ex}
	c.Reset(p, truth)
	for i := range truth {
		if !containsRegion(c.Candidates[i], truth[i]) {
			t.Fatalf("truth region %d missing from candidates of record %d", truth[i], i)
		}
		for k := 1; k < len(c.Candidates[i]); k++ {
			if c.Candidates[i][k-1] >= c.Candidates[i][k] {
				t.Fatalf("record %d candidates not strictly sorted: %v", i, c.Candidates[i])
			}
		}
	}
}
