package features

import (
	"math/rand"
	"testing"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// benchContext is the fixed long-dwell context of the kernel
// benchmarks: 1200 records over testSpace whose event runs hold 100–160
// records across several regions, with fixed random weights.
func benchContext(b *testing.B) (*SeqContext, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	ex, err := NewExtractor(testSpace(b), testParams())
	if err != nil {
		b.Fatal(err)
	}
	c := ex.NewSeqContext(longDwellSequence(rng, 1200), nil)
	c.Labeling().Reset(longDwellLabels(rng, c.Len(), ex.Space.NumRegions()))
	w := make([]float64, Dim)
	for k := range w {
		w[k] = rng.NormFloat64()
	}
	return c, w
}

// BenchmarkRegionCandScores measures one node evaluation of the region
// kernel (all candidates of one record), cycling over the records.
func BenchmarkRegionCandScores(b *testing.B) {
	c, w := benchContext(b)
	l := c.Labeling()
	scores := make([]float64, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i := k % c.Len()
		c.RegionCandScores(w, l.Regions(), l.Events(), i, scores[:len(c.Candidates[i])])
	}
}

// BenchmarkEventCandScores measures one node evaluation of the event
// kernel, cycling over the records.
func BenchmarkEventCandScores(b *testing.B) {
	c, w := benchContext(b)
	l := c.Labeling()
	scores := make([]float64, seq.NumEvents)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		c.EventCandScores(w, l.Regions(), l.Events(), k%c.Len(), scores)
	}
}

// BenchmarkRegionRunDelta measures pricing one block move: a region run
// relabeled to one of its first record's candidates, cycling over the
// runs.
func BenchmarkRegionRunDelta(b *testing.B) {
	c, _ := benchContext(b)
	l := c.Labeling()
	type move struct {
		a, b int
		r    indoor.RegionID
	}
	var moves []move
	for a := 0; a < c.Len(); {
		_, e := l.RegionRun(a)
		for _, r := range c.Candidates[a] {
			if r != l.Regions()[a] {
				moves = append(moves, move{a, e, r})
			}
		}
		a = e + 1
	}
	out := make([]float64, Dim)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		m := moves[k%len(moves)]
		c.RegionRunDelta(l.Regions(), l.Events(), m.a, m.b, m.r, out)
	}
}
