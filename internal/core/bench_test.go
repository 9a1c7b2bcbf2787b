package core

import (
	"math/rand"
	"testing"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// BenchmarkBlockICM measures one block-ICM sweep — every region run
// priced against every candidate of its records, plus the node sweep
// that follows an accepted block move — from the ICM fixed point of a
// fixed 1200-record long-dwell sequence.
func BenchmarkBlockICM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, ctx := longDwellFixture(b, rng, randomVenue(b, rng), 1200)
	ws := NewWorkspace()
	ws.Reset(m, ctx)
	ws.icm(20)
	R := append([]indoor.RegionID(nil), ws.lab.Regions()...)
	E := append([]seq.Event(nil), ws.lab.Events()...)
	score := ws.score
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ws.lab.Reset(R, E)
		ws.markAllDirty()
		ws.score = score
		b.StartTimer()
		ws.blockICM(1)
	}
}
