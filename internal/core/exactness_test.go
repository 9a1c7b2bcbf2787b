package core

import (
	"fmt"
	"math/rand"
	"testing"

	"c2mn/internal/features"
	"c2mn/internal/geom"
	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// randomVenue builds a randomized venue — a grid of rooms over one or
// more floors, randomly doored, with a random subset of rooms carrying
// semantic regions — so the exactness property is checked on geometry
// the handcrafted test venue cannot represent (region-free hallways,
// unreachable room pairs, multiple floors).
func randomVenue(t testing.TB, rng *rand.Rand) *indoor.Space {
	t.Helper()
	b := indoor.NewBuilder()
	floors := 1 + rng.Intn(2)
	gx, gy := 3+rng.Intn(3), 2+rng.Intn(3)
	roomW := 6 + 6*rng.Float64()
	var prevParts []indoor.PartitionID
	for f := 0; f < floors; f++ {
		parts := make([]indoor.PartitionID, gx*gy)
		for y := 0; y < gy; y++ {
			for x := 0; x < gx; x++ {
				x0, y0 := float64(x)*roomW, float64(y)*roomW
				parts[y*gx+x] = b.AddPartition(f, geom.RectPoly(
					geom.Pt(x0, y0), geom.Pt(x0+roomW, y0+roomW)))
			}
		}
		for y := 0; y < gy; y++ {
			for x := 0; x < gx; x++ {
				if x+1 < gx && rng.Float64() < 0.8 {
					b.AddDoor(geom.Pt(float64(x+1)*roomW, (float64(y)+0.5)*roomW),
						parts[y*gx+x], parts[y*gx+x+1])
				}
				if y+1 < gy && rng.Float64() < 0.8 {
					b.AddDoor(geom.Pt((float64(x)+0.5)*roomW, float64(y+1)*roomW),
						parts[y*gx+x], parts[(y+1)*gx+x])
				}
			}
		}
		if f > 0 {
			b.AddDoor(geom.Pt(0.5*roomW, 0.5*roomW), prevParts[0], parts[0])
		}
		for i, p := range parts {
			if rng.Float64() < 0.75 {
				b.AddRegion(fmt.Sprintf("r%d_%d", f, i), p)
			}
		}
		prevParts = parts
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomWalkSequence fabricates a p-sequence wandering the venue:
// dwell phases (short steps, long dts) alternating with transit phases
// (long steps, short dts), switching with probability switchP per
// record, sometimes drifting outside the venue bounds so records with
// empty candidate sets occur.
func randomWalkSequence(rng *rand.Rand, space *indoor.Space, n int, switchP float64) seq.PSequence {
	bounds := space.Bounds()
	p := seq.PSequence{ObjectID: "rand"}
	x := bounds.Min.X + rng.Float64()*(bounds.Max.X-bounds.Min.X)
	y := bounds.Min.Y + rng.Float64()*(bounds.Max.Y-bounds.Min.Y)
	floor := rng.Intn(len(space.Floors()))
	tcur := 0.0
	dwell := rng.Intn(2) == 0
	for i := 0; i < n; i++ {
		if rng.Float64() < switchP {
			dwell = !dwell
		}
		step, dt := 4.0, 4.0
		if dwell {
			step, dt = 0.8, 8+rng.Float64()*6
		}
		x += rng.NormFloat64() * step
		y += rng.NormFloat64() * step
		tcur += dt
		p.Records = append(p.Records, seq.Record{Loc: indoor.Loc(x, y, floor), T: tcur})
	}
	return p
}

// TestAnnotateMatchesReferenceOnRandomVenues is the tentpole's
// property test at full generality: random venues, random wandering
// sequences and random models — including annealed restarts under a
// fixed seed — annotated through the optimized path (geometry cache,
// convergence worklists, fused scoring) must yield labels
// byte-identical to the pre-optimization reference implementation.
func TestAnnotateMatchesReferenceOnRandomVenues(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	optsList := []InferOptions{
		{},
		{MaxSweeps: 4},
		{AnnealSweeps: 3, Seed: 17},
		{MaxSweeps: 6, AnnealSweeps: 2, Seed: 5},
	}
	for trial := 0; trial < 6; trial++ {
		space := randomVenue(t, rng)
		params := testParams()
		params.V = 2 + 6*rng.Float64()
		if trial%2 == 1 {
			params.TimeDecayST = 0.01
			params.TimeDecaySC = 0.005
		}
		m := NewModel(params)
		for i := range m.Weights {
			m.Weights[i] = rng.NormFloat64()
		}
		ex, err := features.NewExtractor(space, params)
		if err != nil {
			t.Fatal(err)
		}
		for si := 0; si < 3; si++ {
			p := randomWalkSequence(rng, space, 20+rng.Intn(60), 0.15)
			ctx := ex.NewSeqContext(&p, nil)
			assertMatchesReference(t, m, ctx, optsList, fmt.Sprintf("trial %d seq %d", trial, si))
		}
	}
	// Long dwells: phases of ~100 records, so segmentation runs span
	// whole stays and drift across several regions.
	space := randomVenue(t, rng)
	m, ctx := longDwellFixture(t, rng, space, 400)
	assertMatchesReference(t, m, ctx, optsList, "long dwell")
}

// longDwellFixture draws a random model whose event and region chains
// are smooth enough to keep stays whole, and an n-record walk over
// space with dwell phases of ~100 records.
func longDwellFixture(t testing.TB, rng *rand.Rand, space *indoor.Space, n int) (*Model, *features.SeqContext) {
	t.Helper()
	params := testParams()
	params.V = 4
	m := NewModel(params)
	for i := range m.Weights {
		m.Weights[i] = rng.NormFloat64()
	}
	m.Weights[features.IdxEM] = 1 + rng.Float64()
	m.Weights[features.IdxST] = 1 + rng.Float64()
	m.Weights[features.IdxET] = 2 + rng.Float64()
	ex, err := features.NewExtractor(space, params)
	if err != nil {
		t.Fatal(err)
	}
	p := randomWalkSequence(rng, space, n, 0.01)
	return m, ex.NewSeqContext(&p, nil)
}

// assertMatchesReference annotates ctx under every option set and
// requires labels byte-identical to the reference implementation.
func assertMatchesReference(t *testing.T, m *Model, ctx *features.SeqContext, optsList []InferOptions, what string) {
	t.Helper()
	for oi, opts := range optsList {
		want := referenceAnnotate(m, ctx, opts)
		got := m.Annotate(ctx, opts)
		for i := range want.Regions {
			if got.Regions[i] != want.Regions[i] || got.Events[i] != want.Events[i] {
				t.Fatalf("%s opts %d: label %d = (%v,%v), reference (%v,%v)",
					what, oi, i, got.Regions[i], got.Events[i], want.Regions[i], want.Events[i])
			}
		}
	}
}
