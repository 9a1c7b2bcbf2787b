package query

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"c2mn/internal/indoor"
)

// answersJSON serialises a query answer pair so two indexes can be
// compared for byte equality, not just structural equality.
func answersJSON(t *testing.T, ix *Index, q []indoor.RegionID, w Window, k int) []byte {
	t.Helper()
	buf, err := json.Marshal(struct {
		Regions []RegionCount
		Pairs   []PairCount
	}{ix.TopKPopularRegions(q, w, k), ix.TopKFrequentPairs(q, w, k)})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestIndexSnapshotRestoreProperty is the snapshot-exactness property:
// across random add/evict workloads, an index restored from
// SnapshotState answers every query byte-equal to the live index it
// was captured from — and keeps doing so as both continue to ingest
// the same stream.
func TestIndexSnapshotRestoreProperty(t *testing.T) {
	allRegions := make([]indoor.RegionID, 10)
	for i := range allRegions {
		allRegions[i] = indoor.RegionID(i)
	}
	cases := []struct {
		name      string
		retention float64
		lo, hi    float64
	}{
		{"unbounded", 0, 0, 2000},
		{"windowed", 300, 0, 2000},
		{"tight-window", 40, 0, 2000},
		{"negative-times", 250, -5000, 1000},
		{"wide-span-coarsens", 0, 0, 500000},
		{"wide-span-windowed", 20000, 0, 500000},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(500 + ci)))
			live := NewIndex(tc.retention)
			// restored tracks the most recent snapshot, re-fed with the
			// records added since; nil until the first capture.
			var restored *Index
			for i := 0; i < 400; i++ {
				ms := randomMS(rng, i, tc.lo, tc.hi, digitRegions, 0.02)
				live.Add(ms)
				if restored != nil {
					restored.Add(ms)
				}
				if i%37 == 0 {
					// Re-capture: restore must reproduce the live index at an
					// arbitrary point of the workload, heap and eviction state
					// included.
					st := live.SnapshotState()
					var err error
					restored, err = RestoreIndex(st)
					if err != nil {
						t.Fatalf("step %d: RestoreIndex: %v", i, err)
					}
					ls, lsem := live.Len()
					rs, rsem := restored.Len()
					if ls != rs || lsem != rsem {
						t.Fatalf("step %d: restored Len = (%d, %d), live (%d, %d)", i, rs, rsem, ls, lsem)
					}
					if !reflect.DeepEqual(restored.Snapshot(), live.Snapshot()) {
						t.Fatalf("step %d: restored Snapshot diverges from live", i)
					}
				}
				if i%5 != 0 || restored == nil {
					continue
				}
				a := tc.lo + rng.Float64()*(tc.hi-tc.lo)
				b := tc.lo + rng.Float64()*(tc.hi-tc.lo)
				w := Window{Start: min(a, b), End: max(a, b)}
				q := allRegions
				if rng.Intn(2) == 0 {
					q = allRegions[:1+rng.Intn(len(allRegions))]
				}
				k := 1 + rng.Intn(6)
				got := answersJSON(t, restored, q, w, k)
				want := answersJSON(t, live, q, w, k)
				if string(got) != string(want) {
					t.Fatalf("step %d: restored answers (%v, %v, k=%d)\n got %s\nwant %s",
						i, q, w, k, got, want)
				}
			}
		})
	}
}

// TestRestoreIndexRejectsInvalidState pins the typed rejection of
// nonsense geometry instead of a panic or a silently-wrong index.
func TestRestoreIndexRejectsInvalidState(t *testing.T) {
	good := NewIndex(100).SnapshotState()
	bad := []IndexState{
		{},                        // zero widths
		{BaseWidth: -1, Width: 1}, // negative base
		{BaseWidth: 4, Width: 2},  // width below base
		{BaseWidth: 1, Width: 1, MaxEnd: nan(), HasMax: true}, // NaN clock
	}
	for i, st := range bad {
		if _, err := RestoreIndex(st); err == nil {
			t.Fatalf("bad state %d accepted", i)
		}
	}
	if _, err := RestoreIndex(good); err != nil {
		t.Fatalf("valid empty state rejected: %v", err)
	}
}

func nan() float64 {
	var z float64
	return z / z
}

// TestStoreSnapshotRestoreRoundTrip drives the same property through
// the locked Store surface.
func TestStoreSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewStore(500)
	for i := 0; i < 100; i++ {
		s.Add(randomMS(rng, i, 0, 3000, digitRegions, 0.02))
	}
	fresh := NewStore(0)
	if err := fresh.RestoreState(s.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Snapshot(), s.Snapshot()) {
		t.Fatal("restored store contents diverge")
	}
	q := []indoor.RegionID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	w := Window{Start: 0, End: 3000}
	if !reflect.DeepEqual(fresh.TopKPopularRegions(q, w, 5), s.TopKPopularRegions(q, w, 5)) {
		t.Fatal("restored store TkPRQ diverges")
	}
	// The restored store adopted the snapshot's retention: continued
	// ingestion keeps evicting identically.
	for i := 100; i < 160; i++ {
		ms := randomMS(rng, i, 2000, 6000, digitRegions, 0.02)
		s.Add(ms)
		fresh.Add(ms)
	}
	if !reflect.DeepEqual(fresh.Snapshot(), s.Snapshot()) {
		t.Fatal("post-restore ingestion diverges")
	}
}
