package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// mirrorStore is the brute-force reference: a plain slice with the
// same eviction contract as the index (evict when a sequence's last
// end falls strictly behind maxEnd - retention).
type mirrorStore struct {
	retention float64
	maxEnd    float64
	hasMax    bool
	mss       []seq.MSSequence
}

func (m *mirrorStore) add(ms seq.MSSequence) {
	if len(ms.Semantics) == 0 {
		return
	}
	if end := ms.Semantics[len(ms.Semantics)-1].End; !m.hasMax || end > m.maxEnd {
		m.maxEnd, m.hasMax = end, true
	}
	m.mss = append(m.mss, ms)
	if m.retention <= 0 {
		return
	}
	horizon := m.maxEnd - m.retention
	kept := m.mss[:0]
	for _, ms := range m.mss {
		if ms.Semantics[len(ms.Semantics)-1].End >= horizon {
			kept = append(kept, ms)
		}
	}
	m.mss = kept
}

func (m *mirrorStore) semantics() int {
	n := 0
	for _, ms := range m.mss {
		n += len(ms.Semantics)
	}
	return n
}

// digitRegions is the default region palette, IDs 0..9.
var digitRegions = []indoor.RegionID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

// randomMS builds a sequence of 1..5 time-ordered semantics with
// regions drawn from palette, a mix of stays and passes, and periods
// anywhere in [lo, hi), separated by pauses of up to gap × the span —
// sequence end times across calls are deliberately NOT monotone,
// exercising out-of-order eviction.
func randomMS(rng *rand.Rand, id int, lo, hi float64, palette []indoor.RegionID, gap float64) seq.MSSequence {
	n := 1 + rng.Intn(5)
	ms := seq.MSSequence{ObjectID: fmt.Sprintf("obj%d", id)}
	t := lo + rng.Float64()*(hi-lo)*0.8
	for i := 0; i < n; i++ {
		d := rng.Float64() * (hi - lo) * 0.05
		ev := seq.Stay
		if rng.Intn(4) == 0 {
			ev = seq.Pass
		}
		ms.Semantics = append(ms.Semantics, seq.MSemantics{
			Region: palette[rng.Intn(len(palette))],
			Start:  t,
			End:    t + d,
			Event:  ev,
		})
		t += d + rng.Float64()*(hi-lo)*gap
	}
	return ms
}

// checkIndex compares both index queries and Len against the
// brute-force recount over the mirror's retained sequences.
func checkIndex(t *testing.T, step string, s *Store, mirror *mirrorStore, q []indoor.RegionID, w Window, k int) {
	t.Helper()
	if got, want := s.TopKPopularRegions(q, w, k), TopKPopularRegions(mirror.mss, q, w, k); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: TopKPopularRegions(%v, %v, %d)\n got %v\nwant %v", step, q, w, k, got, want)
	}
	if got, want := s.TopKFrequentPairs(q, w, k), TopKFrequentPairs(mirror.mss, q, w, k); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: TopKFrequentPairs(%v, %v, %d)\n got %v\nwant %v", step, q, w, k, got, want)
	}
	seqs, sems := s.Len()
	if seqs != len(mirror.mss) || sems != mirror.semantics() {
		t.Fatalf("%s: Len = (%d, %d), want (%d, %d)", step, seqs, sems, len(mirror.mss), mirror.semantics())
	}
}

// TestIndexMatchesBruteForce is the exactness property: under random
// adds (with out-of-order end times) and retention evictions, the
// bucketed top-k answers equal a brute-force recount over the
// retained sequences, for random windows, query sets and k. Queries
// run every fifth add and right after every add that evicted or
// compacted; query sets mix stored regions with duplicates and regions
// the index never stored, and some windows sit exactly on stored stay
// endpoints, where Window.Contains is inclusive.
func TestIndexMatchesBruteForce(t *testing.T) {
	digits := digitRegions
	odd := []indoor.RegionID{-(1 << 40), -7, -1, 0, 5, 1 << 40}
	cases := []struct {
		name      string
		retention float64
		lo, hi    float64
		palette   []indoor.RegionID
		gap       float64 // max pause between stays, as a share of the span
	}{
		{"unbounded", 0, 0, 2000, digits, 0.02},
		{"windowed", 300, 0, 2000, digits, 0.02},
		{"tight-window", 40, 0, 2000, digits, 0.02},
		{"negative-times", 250, -5000, 1000, digits, 0.02},
		{"wide-span-coarsens", 0, 0, 500000, digits, 0.02}, // >> maxBuckets * defaultWidth
		{"wide-span-windowed", 20000, 0, 500000, digits, 0.02},
		{"odd-region-ids", 0, 0, 2000, odd, 0.02},
		{"odd-region-ids-windowed", 150, 0, 2000, odd, 0.02},
		{"gapped-stays", 0, 0, 2000, digits, 0.25},
		{"gapped-stays-windowed", 200, 0, 2000, digits, 0.25},
	}
	var evicted, compacted int
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			s := NewStore(tc.retention)
			mirror := &mirrorStore{retention: tc.retention}
			for i := 0; i < 400; i++ {
				ms := randomMS(rng, i, tc.lo, tc.hi, tc.palette, tc.gap)
				if i%31 == 0 {
					ms.Semantics = nil // empty sequences are ignored
				}
				stored, kept := len(s.ix.seqs), len(mirror.mss)
				s.Add(ms)
				mirror.add(ms)
				evicts := len(mirror.mss) < kept+min(len(ms.Semantics), 1)
				compacts := len(s.ix.seqs) < stored
				if evicts {
					evicted++
				}
				if compacts {
					compacted++
				}
				if i%5 != 0 && !evicts && !compacts {
					continue
				}
				// Random query: window, region subset, k.
				a := tc.lo + rng.Float64()*(tc.hi-tc.lo)
				b := tc.lo + rng.Float64()*(tc.hi-tc.lo)
				if len(mirror.mss) > 0 && rng.Intn(3) == 0 {
					a, b = stayEndpoint(rng, mirror.mss), stayEndpoint(rng, mirror.mss)
				}
				w := Window{Start: min(a, b), End: max(a, b)}
				q := tc.palette
				if rng.Intn(2) == 0 {
					q = tc.palette[:1+rng.Intn(len(tc.palette))]
				}
				if rng.Intn(3) == 0 {
					q = append(append([]indoor.RegionID{1 << 41, -12345}, q...), q[0])
				}
				k := 1 + rng.Intn(6)
				checkIndex(t, fmt.Sprintf("step %d", i), s, mirror, q, w, k)
			}
			// Final full-content check.
			if got, want := s.Snapshot(), mirror.mss; !reflect.DeepEqual(got, append([]seq.MSSequence{}, want...)) {
				t.Fatalf("snapshot diverged: %d vs %d sequences", len(got), len(want))
			}
		})
	}
	if evicted == 0 || compacted == 0 {
		t.Fatalf("no query ran after an eviction (%d) or a compaction (%d)", evicted, compacted)
	}
}

// stayEndpoint returns the Start or End of a random semantics triple
// of a random retained sequence.
func stayEndpoint(rng *rand.Rand, mss []seq.MSSequence) float64 {
	sem := mss[rng.Intn(len(mss))].Semantics
	m := sem[rng.Intn(len(sem))]
	if rng.Intn(2) == 0 {
		return m.Start
	}
	return m.End
}

// fuzzRegions is the fuzz target's region palette: negative, zero and
// huge IDs side by side.
var fuzzRegions = []indoor.RegionID{-(1 << 40), -3, 0, 1, 7, 1 << 40}

// FuzzIndexMatchesBruteForce decodes ops into adds and queries against
// a store with the given retention (0 keeps everything) and checks
// every query against the brute-force recount. Times are small
// integers, so window bounds often coincide with stay endpoints, and
// the stream clock may step back, so sequence ends arrive out of
// order.
//
// An op byte whose low two bits are 3 is a query: one byte of region
// mask (bits 0–5 select fuzzRegions, bit 6 adds a never-stored region,
// bit 7 repeats the first one), two window-bound bytes below the clock
// (possibly inverted) and a k byte. Any other op byte adds a sequence
// of 1 + op/4%4 triples starting up to 63 s before the clock, each
// from a region/event/gap byte and a duration byte; the clock then
// advances by op/16.
func FuzzIndexMatchesBruteForce(f *testing.F) {
	f.Add(uint8(0), []byte{0x10, 0, 2, 10, 1, 5, 0x13, 0x0f, 0, 40, 3})
	f.Add(uint8(20), []byte{0xf4, 0, 0x29, 10, 0x42, 7, 0xf0, 5, 0x18, 3, 0x03, 0xff, 30, 0, 2})
	f.Fuzz(func(t *testing.T, retention uint8, ops []byte) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		s := NewStore(float64(retention))
		mirror := &mirrorStore{retention: float64(retention)}
		clock := 0.0
		for n := 0; len(ops) > 0; n++ {
			op := next()
			if op%4 != 3 {
				ms := seq.MSSequence{ObjectID: fmt.Sprint(n)}
				t0 := clock - float64(next()%64)
				for j := 0; j < 1+op/4%4; j++ {
					b, d := next(), float64(next()%32)
					ev := seq.Stay
					if b&0x80 != 0 {
						ev = seq.Pass
					}
					ms.Semantics = append(ms.Semantics, seq.MSemantics{
						Region: fuzzRegions[b%len(fuzzRegions)], Start: t0, End: t0 + d, Event: ev,
					})
					t0 += d + float64(b>>3&7)
				}
				clock += float64(op / 16)
				s.Add(ms)
				mirror.add(ms)
				continue
			}
			mask := next()
			var q []indoor.RegionID
			for i, r := range fuzzRegions {
				if mask>>i&1 != 0 {
					q = append(q, r)
				}
			}
			if mask&0x40 != 0 {
				q = append(q, 12345)
			}
			if mask&0x80 != 0 && len(q) > 0 {
				q = append(q, q[0])
			}
			w := Window{Start: clock - float64(next()), End: clock - float64(next())}
			checkIndex(t, fmt.Sprintf("op %d", n), s, mirror, q, w, next()%6)
		}
		checkIndex(t, "final", s, mirror, fuzzRegions, Window{Start: -1e9, End: 1e9}, 10)
	})
}

// TestIndexOutOfOrderEviction pins the eviction fix: a stale sequence
// must be evicted even when a fresher one arrived before it (the old
// head-first amortised eviction kept it).
func TestIndexOutOfOrderEviction(t *testing.T) {
	s := NewStore(100)
	s.Add(storeMS("fresh", stay(1, 490, 500))) // arrives first, ends late
	s.Add(storeMS("stale", stay(2, 440, 450))) // arrives second, ends early
	s.Add(storeMS("new", stay(3, 590, 600)))   // horizon -> 500
	if seqs, _ := s.Len(); seqs != 2 {
		t.Fatalf("stored %d sequences, want 2 (stale evicted, fresh kept)", seqs)
	}
	snap := s.Snapshot()
	ids := map[string]bool{}
	for _, ms := range snap {
		ids[ms.ObjectID] = true
	}
	if !ids["fresh"] || !ids["new"] || ids["stale"] {
		t.Fatalf("retained %v, want fresh+new without stale", ids)
	}
	// The evicted sequence no longer counts in either query.
	top := s.TopKPopularRegions([]indoor.RegionID{1, 2, 3}, Window{0, 1000}, 3)
	for _, rc := range top {
		if rc.Region == 2 {
			t.Fatalf("evicted region still counted: %v", top)
		}
	}
}

// TestIndexNaNWindow: NaN bounds match the brute-force semantics —
// Window.Contains is false against NaN, so both queries are empty.
func TestIndexNaNWindow(t *testing.T) {
	s := NewStore(0)
	s.Add(storeMS("a", stay(1, 0, 100), stay(2, 50, 150)))
	nan := math.NaN()
	for _, w := range []Window{{nan, 100}, {0, nan}, {nan, nan}} {
		got := s.TopKPopularRegions([]indoor.RegionID{1, 2}, w, 5)
		want := TopKPopularRegions(s.Snapshot(), []indoor.RegionID{1, 2}, w, 5)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("NaN window %v: got %v, want %v", w, got, want)
		}
		if len(got) != 0 {
			t.Fatalf("NaN window %v returned counts: %v", w, got)
		}
		if pairs := s.TopKFrequentPairs([]indoor.RegionID{1, 2}, w, 5); len(pairs) != 0 {
			t.Fatalf("NaN window %v returned pairs: %v", w, pairs)
		}
	}
}

// TestIndexInvertedWindow checks the degenerate Start > End window
// agrees with the brute-force semantics of Window.Contains.
func TestIndexInvertedWindow(t *testing.T) {
	s := NewStore(0)
	spanning := storeMS("span", stay(1, 0, 100)) // intersects [50, 40] per Contains
	narrow := storeMS("narrow", stay(2, 45, 47)) // does not
	s.Add(spanning)
	s.Add(narrow)
	w := Window{Start: 50, End: 40}
	got := s.TopKPopularRegions([]indoor.RegionID{1, 2}, w, 5)
	want := TopKPopularRegions([]seq.MSSequence{spanning, narrow}, []indoor.RegionID{1, 2}, w, 5)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("inverted window: got %v, want %v", got, want)
	}
}

// TestIndexRetentionKeepsResolution: under a retention window, wall-
// clock advance alone must not coarsen the buckets — the live span
// stays ~retention wide, so overflow of the ring is resolved by
// re-basing at the current width, not by doubling it.
func TestIndexRetentionKeepsResolution(t *testing.T) {
	s := NewStore(900)
	want := s.ix.width
	for i := 0; i < 600; i++ { // 60k seconds of stream time, ~66 windows
		t0 := float64(i * 100)
		s.Add(storeMS(fmt.Sprintf("o%d", i), stay(indoor.RegionID(i%5), t0, t0+60)))
	}
	if s.ix.width != want {
		t.Fatalf("bucket width coarsened to %g under a sliding window, want %g", s.ix.width, want)
	}
	if len(s.ix.buckets) > s.ix.maxBuckets {
		t.Fatalf("ring grew to %d buckets, cap %d", len(s.ix.buckets), s.ix.maxBuckets)
	}
}

// TestIndexWidthRecoversAfterOutlier: a transiently wide time span —
// e.g. one sequence with far-future timestamps — coarsens the buckets,
// but once it is evicted and the ring is rebuilt over the survivors,
// the resolution must return to the base width instead of staying
// degraded forever.
func TestIndexWidthRecoversAfterOutlier(t *testing.T) {
	s := NewStore(900)
	base := s.ix.width
	// An outlier far in the future coarsens the ring and (by advancing
	// maxEnd) evicts everything else.
	s.Add(storeMS("outlier", stay(1, 1e7, 1e7+10)))
	s.Add(storeMS("normal", stay(2, 0, 60))) // instantly stale, evicted
	if s.ix.width <= base {
		t.Fatalf("test setup: outlier did not coarsen (width %g)", s.ix.width)
	}
	// Traffic continues in the outlier's time frame; churn through the
	// retention window until the outlier is evicted and a compaction
	// rebuild re-fits the width to the surviving ~900s span.
	for i := 0; i < 300; i++ {
		t0 := 1e7 + float64(i*100)
		s.Add(storeMS(fmt.Sprintf("o%d", i), stay(indoor.RegionID(i%5), t0, t0+60)))
	}
	if s.ix.width != base {
		t.Fatalf("width stuck at %g after the outlier was evicted, want recovery to %g", s.ix.width, base)
	}
}

// TestIndexCompaction drives enough churn through a small window that
// dead sequences repeatedly outnumber live ones, forcing compaction
// rebuilds, and verifies correctness afterwards.
func TestIndexCompaction(t *testing.T) {
	s := NewStore(50)
	mirror := &mirrorStore{retention: 50}
	for i := 0; i < 1000; i++ {
		t0 := float64(i)
		ms := storeMS(fmt.Sprintf("o%d", i), stay(indoor.RegionID(i%7), t0, t0+5))
		s.Add(ms)
		mirror.add(ms)
	}
	q := []indoor.RegionID{0, 1, 2, 3, 4, 5, 6}
	w := Window{Start: 940, End: 1010}
	if got, want := s.TopKPopularRegions(q, w, 7), TopKPopularRegions(mirror.mss, q, w, 7); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-churn TopKPopularRegions: got %v, want %v", got, want)
	}
	if seqs, _ := s.Len(); seqs != len(mirror.mss) {
		t.Fatalf("post-churn Len = %d, want %d", seqs, len(mirror.mss))
	}
}
