package core

import (
	"math"
	"math/rand"
	"testing"

	"c2mn/internal/features"
	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// randomModel draws a model with random weights, exercising score
// regimes a trained model would not reach.
func randomModel(rng *rand.Rand) *Model {
	m := NewModel(testParams())
	for i := range m.Weights {
		m.Weights[i] = rng.NormFloat64()
	}
	return m
}

// scoreGap returns |running − recomputed| relative to the score scale.
func scoreGap(t *testing.T, ws *Workspace, m *Model, ctx *features.SeqContext) float64 {
	t.Helper()
	full := m.Score(ctx, ws.lab.Regions(), ws.lab.Events())
	return math.Abs(ws.Score()-full) / math.Max(1, math.Abs(full))
}

// TestWorkspaceScoreMatchesFullRecompute is the incremental-scoring
// property the whole refactor rests on: after arbitrary randomized
// sequences of ICM, block-ICM and annealed phases, the workspace's
// maintained running score must equal the full O(n·Dim) recompute.
func TestWorkspaceScoreMatchesFullRecompute(t *testing.T) {
	space := testSpace(t)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m := randomModel(rng)
		ex, err := features.NewExtractor(space, m.Params)
		if err != nil {
			t.Fatal(err)
		}
		ls := synthSequence("w", indoor.RegionID(rng.Intn(3)), indoor.RegionID(rng.Intn(3)), rng)
		ctx := ex.NewSeqContext(&ls.P, nil)
		ws := NewWorkspace()
		ws.Reset(m, ctx)
		if g := scoreGap(t, ws, m, ctx); g > 1e-9 {
			t.Fatalf("trial %d: initial score off by %g", trial, g)
		}
		// Randomized phase sequence.
		for step := 0; step < 6; step++ {
			switch rng.Intn(3) {
			case 0:
				ws.icm(1 + rng.Intn(5))
			case 1:
				ws.blockICM(1 + rng.Intn(5))
			default:
				ws.anneal(InferOptions{AnnealSweeps: 1 + rng.Intn(3), Seed: rng.Int63()})
			}
			if g := scoreGap(t, ws, m, ctx); g > 1e-9 {
				t.Fatalf("trial %d step %d: running score off by %g", trial, step, g)
			}
		}
	}
}

// TestWorkspaceAnnotateScoreInvariant checks that after a full
// Annotate the workspace's score matches both the returned labels and
// the full recompute.
func TestWorkspaceAnnotateScoreInvariant(t *testing.T) {
	space := testSpace(t)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		m := randomModel(rng)
		ex, err := features.NewExtractor(space, m.Params)
		if err != nil {
			t.Fatal(err)
		}
		ls := synthSequence("w", 0, 2, rng)
		ctx := ex.NewSeqContext(&ls.P, nil)
		ws := NewWorkspace()
		labels := ws.Annotate(m, ctx, InferOptions{AnnealSweeps: trial % 3 * 2, Seed: int64(trial)})
		if got := m.Score(ctx, labels.Regions, labels.Events); math.Abs(ws.Score()-got) > 1e-9*math.Max(1, math.Abs(got)) {
			t.Fatalf("trial %d: workspace score %g, labels rescore %g", trial, ws.Score(), got)
		}
	}
}

// ---- pre-refactor reference implementation ----
//
// The functions below are the inference pipeline exactly as it stood
// before the workspace refactor: full O(n·Dim) rescoring per tentative
// block move, fresh buffers per call. They serve as the oracle for the
// byte-identical regression below.

func referenceAnnotate(m *Model, ctx *features.SeqContext, opts InferOptions) seq.Labels {
	if opts.MaxSweeps <= 0 {
		opts.MaxSweeps = 20
	}
	n := ctx.Len()
	R := InitRegions(ctx)
	E := InitEvents(ctx)
	if n == 0 {
		return seq.Labels{Regions: R, Events: E}
	}
	bestR := append([]indoor.RegionID(nil), R...)
	bestE := append([]seq.Event(nil), E...)
	referenceICM(m, ctx, bestR, bestE, opts.MaxSweeps)
	referenceBlockICM(m, ctx, bestR, bestE, opts.MaxSweeps)
	bestScore := m.Score(ctx, bestR, bestE)
	if opts.AnnealSweeps > 0 {
		referenceAnneal(m, ctx, R, E, opts)
		referenceICM(m, ctx, R, E, opts.MaxSweeps)
		referenceBlockICM(m, ctx, R, E, opts.MaxSweeps)
		if s := m.Score(ctx, R, E); s > bestScore {
			copy(bestR, R)
			copy(bestE, E)
		}
	}
	return seq.Labels{Regions: bestR, Events: bestE}
}

func referenceICM(m *Model, ctx *features.SeqContext, R []indoor.RegionID, E []seq.Event, maxSweeps int) {
	n := ctx.Len()
	buf := make([]float64, features.Dim)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for i := 0; i < n; i++ {
			best, bestV := R[i], math.Inf(-1)
			for _, r := range ctx.Candidates[i] {
				ctx.LocalRegionFeatures(R, E, i, r, buf)
				if v := dot(m.Weights, buf); v > bestV {
					best, bestV = r, v
				}
			}
			if best != R[i] {
				R[i] = best
				changed = true
			}
		}
		for i := 0; i < n; i++ {
			best, bestV := E[i], math.Inf(-1)
			for e := 0; e < seq.NumEvents; e++ {
				ctx.LocalEventFeatures(R, E, i, seq.Event(e), buf)
				if v := dot(m.Weights, buf); v > bestV {
					best, bestV = seq.Event(e), v
				}
			}
			if best != E[i] {
				E[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

func referenceBlockICM(m *Model, ctx *features.SeqContext, R []indoor.RegionID, E []seq.Event, maxSweeps int) {
	n := ctx.Len()
	if n == 0 {
		return
	}
	cur := m.Score(ctx, R, E)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		improved := false
		for a := 0; a < n; {
			b := a
			for b+1 < n && R[b+1] == R[a] {
				b++
			}
			orig := R[a]
			seen := map[indoor.RegionID]bool{orig: true}
			bestLabel, bestScore := orig, cur
			for x := a; x <= b; x++ {
				for _, r := range ctx.Candidates[x] {
					if seen[r] {
						continue
					}
					seen[r] = true
					for y := a; y <= b; y++ {
						R[y] = r
					}
					if s := m.Score(ctx, R, E); s > bestScore {
						bestLabel, bestScore = r, s
					}
				}
			}
			for y := a; y <= b; y++ {
				R[y] = bestLabel
			}
			if bestLabel != orig {
				improved = true
				cur = bestScore
			}
			a = b + 1
		}
		if !improved {
			break
		}
		referenceICM(m, ctx, R, E, maxSweeps)
		cur = m.Score(ctx, R, E)
	}
}

func referenceAnneal(m *Model, ctx *features.SeqContext, R []indoor.RegionID, E []seq.Event, opts InferOptions) {
	n := ctx.Len()
	rng := rand.New(rand.NewSource(opts.Seed + 0x5eed))
	buf := make([]float64, features.Dim)
	logits := make([]float64, 0, 16)
	for sweep := 0; sweep < opts.AnnealSweeps; sweep++ {
		temp := 2.0 * float64(opts.AnnealSweeps-sweep) / float64(opts.AnnealSweeps)
		for i := 0; i < n; i++ {
			cands := ctx.Candidates[i]
			if len(cands) > 1 {
				logits = logits[:0]
				maxL := math.Inf(-1)
				for _, r := range cands {
					ctx.LocalRegionFeatures(R, E, i, r, buf)
					v := dot(m.Weights, buf) / temp
					logits = append(logits, v)
					if v > maxL {
						maxL = v
					}
				}
				normalizeExp(logits, maxL)
				R[i] = cands[sampleIndex(logits, rng)]
			}
			logits = logits[:0]
			maxL := math.Inf(-1)
			for e := 0; e < seq.NumEvents; e++ {
				ctx.LocalEventFeatures(R, E, i, seq.Event(e), buf)
				v := dot(m.Weights, buf) / temp
				logits = append(logits, v)
				if v > maxL {
					maxL = v
				}
			}
			normalizeExp(logits, maxL)
			E[i] = seq.Event(sampleIndex(logits, rng))
		}
	}
}

// TestAnnotateMatchesReference is the regression gate of the
// refactor: on seeded workloads — trained and random-weight models,
// with and without the annealed restart — the incremental inference
// must produce labels identical to the pre-refactor full-rescore
// implementation.
func TestAnnotateMatchesReference(t *testing.T) {
	space := testSpace(t)
	trained, _, err := TrainExact(space, synthDataset(10, 4), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	models := []*Model{trained}
	for i := 0; i < 4; i++ {
		models = append(models, randomModel(rng))
	}
	optsList := []InferOptions{
		{},
		{MaxSweeps: 3},
		{AnnealSweeps: 4, Seed: 9},
		{MaxSweeps: 7, AnnealSweeps: 2, Seed: 123},
	}
	for mi, m := range models {
		ex, err := features.NewExtractor(space, m.Params)
		if err != nil {
			t.Fatal(err)
		}
		for si := 0; si < 6; si++ {
			ls := synthSequence("r", indoor.RegionID(si%3), indoor.RegionID((si+1)%3), rng)
			ctx := ex.NewSeqContext(&ls.P, nil)
			for oi, opts := range optsList {
				want := referenceAnnotate(m, ctx, opts)
				got := m.Annotate(ctx, opts)
				for i := range want.Regions {
					if got.Regions[i] != want.Regions[i] || got.Events[i] != want.Events[i] {
						t.Fatalf("model %d seq %d opts %d: label %d = (%v,%v), reference (%v,%v)",
							mi, si, oi, i, got.Regions[i], got.Events[i], want.Regions[i], want.Events[i])
					}
				}
			}
		}
	}
}

// TestWorkspaceReuseAcrossSequences drives one pooled (ctx, ws) pair
// across many sequences of varying length and checks each result
// against a throwaway run, covering the grow/shrink paths of the
// reset lifecycle.
func TestWorkspaceReuseAcrossSequences(t *testing.T) {
	space := testSpace(t)
	m, _, err := TrainExact(space, synthDataset(10, 4), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := features.NewExtractor(space, m.Params)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	reusedCtx := &features.SeqContext{Ex: ex}
	ws := NewWorkspace()
	for round := 0; round < 12; round++ {
		ls := synthSequence("p", indoor.RegionID(round%3), indoor.RegionID((round+2)%3), rng)
		if round%3 == 1 {
			// Shrink to a fragment to exercise capacity reuse.
			ls.P.Records = ls.P.Records[:4+round%5]
		}
		reusedCtx.Reset(&ls.P, nil)
		got := ws.Annotate(m, reusedCtx, InferOptions{})
		want := m.Annotate(ex.NewSeqContext(&ls.P, nil), InferOptions{})
		for i := range want.Regions {
			if got.Regions[i] != want.Regions[i] || got.Events[i] != want.Events[i] {
				t.Fatalf("round %d: label %d = (%v,%v), fresh run (%v,%v)",
					round, i, got.Regions[i], got.Events[i], want.Regions[i], want.Events[i])
			}
		}
	}
}
