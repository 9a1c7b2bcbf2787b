package query

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

func storeMS(object string, triples ...seq.MSemantics) seq.MSSequence {
	return seq.MSSequence{ObjectID: object, Semantics: triples}
}

func stay(r indoor.RegionID, start, end float64) seq.MSemantics {
	return seq.MSemantics{Region: r, Start: start, End: end, Event: seq.Stay}
}

func TestStoreMatchesBatchQueries(t *testing.T) {
	mss := []seq.MSSequence{
		storeMS("a", stay(1, 0, 10), stay(2, 20, 30)),
		storeMS("b", stay(1, 5, 15), stay(3, 40, 50)),
		storeMS("c", stay(2, 0, 5)),
	}
	s := NewStore(0)
	for _, ms := range mss {
		s.Add(ms)
	}
	q := []indoor.RegionID{1, 2, 3}
	w := Window{Start: 0, End: 100}
	if got, want := s.TopKPopularRegions(q, w, 3), TopKPopularRegions(mss, q, w, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("TopKPopularRegions: got %v want %v", got, want)
	}
	if got, want := s.TopKFrequentPairs(q, w, 3), TopKFrequentPairs(mss, q, w, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("TopKFrequentPairs: got %v want %v", got, want)
	}
	if seqs, sems := s.Len(); seqs != 3 || sems != 5 {
		t.Errorf("Len = %d, %d", seqs, sems)
	}
}

func TestStoreIgnoresEmptySequences(t *testing.T) {
	s := NewStore(0)
	s.Add(seq.MSSequence{ObjectID: "empty"})
	if seqs, _ := s.Len(); seqs != 0 {
		t.Errorf("empty sequence stored")
	}
}

func TestStoreRetentionEvicts(t *testing.T) {
	s := NewStore(100)
	s.Add(storeMS("old", stay(1, 0, 10)))
	s.Add(storeMS("mid", stay(2, 50, 60)))
	if seqs, _ := s.Len(); seqs != 2 {
		t.Fatalf("premature eviction: %d sequences", seqs)
	}
	// maxEnd jumps to 300: horizon 200 evicts both earlier sequences.
	s.Add(storeMS("new", stay(3, 290, 300)))
	if seqs, sems := s.Len(); seqs != 1 || sems != 1 {
		t.Fatalf("retention kept %d sequences / %d semantics, want 1/1", seqs, sems)
	}
	snap := s.Snapshot()
	if len(snap) != 1 || snap[0].ObjectID != "new" {
		t.Errorf("snapshot = %v", snap)
	}
	// The evicted region no longer counts.
	top := s.TopKPopularRegions([]indoor.RegionID{1, 2, 3}, Window{0, 1000}, 3)
	if len(top) != 1 || top[0].Region != 3 {
		t.Errorf("post-eviction top-k = %v", top)
	}
}

func TestStoreSnapshotIsolated(t *testing.T) {
	s := NewStore(0)
	s.Add(storeMS("a", stay(1, 0, 10)))
	snap := s.Snapshot()
	s.Add(storeMS("b", stay(2, 0, 10)))
	if len(snap) != 1 {
		t.Errorf("snapshot grew with the store")
	}
}

// TestStoreConcurrentAddAndQuery races both query kinds against Adds
// that keep introducing new regions (growing the slot table and the
// per-bucket slot slices) and advancing stream time past the retention
// horizon (evicting and compacting), then checks the settled store
// against the brute-force recount. Run it under -race.
func TestStoreConcurrentAddAndQuery(t *testing.T) {
	s := NewStore(50)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := make([]indoor.RegionID, 0, 8)
			for i := 0; i < 300; i++ {
				t0 := float64(i)
				fresh := indoor.RegionID(1000*(g+1) + i) // a region no Add named before
				s.Add(storeMS(fmt.Sprintf("g%d-%d", g, i),
					stay(indoor.RegionID(i%5), t0, t0+2), stay(fresh, t0+1, t0+3)))
				if i%10 != 0 {
					continue
				}
				q = append(q[:0], 0, 1, 2, 3, 4, fresh, fresh-1, indoor.RegionID(1000*((g+1)%4+1)+i))
				w := Window{Start: t0 - 40, End: t0 + 5}
				s.TopKPopularRegions(q, w, 3)
				s.TopKFrequentPairs(q, w, 3)
			}
		}(g)
	}
	wg.Wait()
	if seqs, _ := s.Len(); seqs == 0 || seqs == 4*300 {
		t.Fatalf("%d sequences stored after 1200 adds, want some evicted and some kept", seqs)
	}
	snap := s.Snapshot()
	q := []indoor.RegionID{0, 1, 2, 3, 4, 1299, 2299, 3299, 4299, 1298, 2298}
	w := Window{Start: 250, End: 300}
	if got, want := s.TopKPopularRegions(q, w, 10), TopKPopularRegions(snap, q, w, 10); !reflect.DeepEqual(got, want) {
		t.Errorf("settled TopKPopularRegions: got %v want %v", got, want)
	}
	if got, want := s.TopKFrequentPairs(q, w, 10), TopKFrequentPairs(snap, q, w, 10); !reflect.DeepEqual(got, want) {
		t.Errorf("settled TopKFrequentPairs: got %v want %v", got, want)
	}
}

func TestStoreOnChange(t *testing.T) {
	s := NewStore(0)
	var gens []uint64
	s.OnChange(func(gen uint64) { gens = append(gens, gen) })

	s.Add(storeMS("a", stay(1, 0, 10)))
	if len(gens) != 1 || gens[0] != s.Generation() {
		t.Fatalf("after one Add: gens = %v, store gen = %d", gens, s.Generation())
	}

	// An empty-semantics sequence is not stored and must not notify.
	s.Add(seq.MSSequence{ObjectID: "empty"})
	if len(gens) != 1 {
		t.Fatalf("empty Add notified: gens = %v", gens)
	}

	// One mutation, one callback — even when the mutation moves the
	// counter more than once (an Add whose retention horizon also
	// evicts bumps per eviction plus once for the insert).
	s2 := NewStore(100)
	var calls []uint64
	s2.OnChange(func(gen uint64) { calls = append(calls, gen) })
	s2.Add(storeMS("old", stay(1, 0, 10)))
	s2.Add(storeMS("new", stay(2, 290, 300))) // evicts "old" and inserts
	if len(calls) != 2 {
		t.Fatalf("calls = %v, want exactly one per Add", calls)
	}
	if calls[1] != s2.Generation() {
		t.Fatalf("callback gen %d != final gen %d", calls[1], s2.Generation())
	}
	if calls[1] < calls[0]+2 {
		t.Fatalf("evicting Add moved gen by %d, want >= 2 (evict + insert)", calls[1]-calls[0])
	}
}

func TestStoreRestoreNotifies(t *testing.T) {
	src := NewStore(0)
	src.Add(storeMS("a", stay(1, 0, 10)))
	st := src.SnapshotState()

	dst := NewStore(0)
	var gens []uint64
	dst.OnChange(func(gen uint64) { gens = append(gens, gen) })
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0] != dst.Generation() {
		t.Fatalf("restore notified %v, store gen %d", gens, dst.Generation())
	}
}
