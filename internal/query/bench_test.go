package query

import (
	"fmt"
	"math/rand"
	"testing"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// The index benchmarks run on the stored-history shape of the
// repository's fleet_query workload: sequences of three overlapping
// stays each, placed uniformly over benchSpan seconds across
// benchRegions regions, queried over windows covering 20–80 % of the
// span with every region in the query set.
const (
	benchSpan    = 20000.0
	benchRegions = 20
	benchWindows = 8
)

// benchSeq returns one three-stay sequence starting at t.
func benchSeq(rng *rand.Rand, id int, t float64) seq.MSSequence {
	ms := seq.MSSequence{ObjectID: fmt.Sprintf("h%d", id)}
	for j := 0; j < 3; j++ {
		d := 30 + rng.Float64()*120
		ms.Semantics = append(ms.Semantics, seq.MSemantics{
			Region: indoor.RegionID(rng.Intn(benchRegions)), Start: t, End: t + d, Event: seq.Stay,
		})
		t += d * 0.4
	}
	return ms
}

// benchIndex returns an unbounded index holding n benchmark sequences,
// the query set of every region and the window pool.
func benchIndex(n int) (*Index, []indoor.RegionID, []Window) {
	rng := rand.New(rand.NewSource(7))
	ix := NewIndex(0)
	for i := 0; i < n; i++ {
		ix.Add(benchSeq(rng, i, rng.Float64()*benchSpan))
	}
	q := make([]indoor.RegionID, benchRegions)
	for i := range q {
		q[i] = indoor.RegionID(i)
	}
	ws := make([]Window, benchWindows)
	for i := range ws {
		span := benchSpan * (0.2 + 0.6*(float64(i)+0.5)/benchWindows)
		start := rng.Float64() * (benchSpan - span)
		ws[i] = Window{Start: start, End: start + span}
	}
	return ix, q, ws
}

// BenchmarkIndexTopKPopularRegions measures one TkPRQ against the
// index, cycling through the window pool.
func BenchmarkIndexTopKPopularRegions(b *testing.B) {
	for _, n := range []int{8000, 16000} {
		b.Run(fmt.Sprintf("stored=%d", n), func(b *testing.B) {
			ix, q, ws := benchIndex(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if top := ix.TopKPopularRegions(q, ws[i%len(ws)], 5); len(top) == 0 {
					b.Fatal("empty top-k over a populated window")
				}
			}
		})
	}
}

// BenchmarkIndexTopKFrequentPairs measures one TkFRPQ against the
// index, cycling through the window pool.
func BenchmarkIndexTopKFrequentPairs(b *testing.B) {
	for _, n := range []int{8000, 16000} {
		b.Run(fmt.Sprintf("stored=%d", n), func(b *testing.B) {
			ix, q, ws := benchIndex(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if top := ix.TopKFrequentPairs(q, ws[i%len(ws)], 5); len(top) == 0 {
					b.Fatal("empty top-k over a populated window")
				}
			}
		})
	}
}

// BenchmarkIndexAdd measures one Add into a sliding-window index in
// steady state: stream time advances so that about 8000 sequences stay
// live, and every Add pays its share of eviction, ring re-basing and
// compaction. Sequences are built in batches outside the timer.
func BenchmarkIndexAdd(b *testing.B) {
	const (
		live  = 8000
		batch = 4096
	)
	rng := rand.New(rand.NewSource(7))
	step := benchSpan / live
	ix := NewIndex(benchSpan)
	for i := 0; i < live; i++ {
		ix.Add(benchSeq(rng, i, float64(i)*step))
	}
	pending := make([]seq.MSSequence, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(pending) == 0 {
			b.StopTimer()
			for j := 0; j < batch; j++ {
				n := live + i + j
				pending = append(pending, benchSeq(rng, n, float64(n)*step))
			}
			b.StartTimer()
		}
		ix.Add(pending[0])
		pending = pending[1:]
	}
}
