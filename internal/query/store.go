package query

import (
	"sync"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// Store is a concurrency-safe in-memory m-semantics store that the
// top-k queries can be answered from while annotation is still in
// flight. It is the live counterpart of running TopKPopularRegions /
// TopKFrequentPairs over a finished batch: a streaming pipeline adds
// each completed ms-sequence as it is emitted and queries see all
// semantics added so far.
//
// Internally the store maintains an Index — an incrementally updated,
// time-bucketed aggregate of per-region stay counts and per-bucket
// candidate sequences, with a per-sequence stay summary, all indexed by
// dense region slots — so the top-k queries cost on the order of the
// bucket count plus the activity inside the queried window, not a
// recount of every retained semantics triple. Answers are exact: they
// equal the brute-force queries over Snapshot(). Queries share the
// read lock: each allocates its own scratch and only reads the index,
// so any number run concurrently, serialised only against Add and
// RestoreState.
//
// A positive retention turns the store into a sliding window over
// stream time: whenever a new ms-sequence advances the maximum period
// end seen so far, sequences that ended more than retention seconds
// before it are evicted. Eviction orders sequences by their end time
// (not arrival order), so interleaved streams whose sequences complete
// out of order are evicted correctly: a stale sequence cannot hide
// behind a fresher one that happened to arrive first.
//
// Each venue shard owns one Store, so this lock is per shard; stores
// of different venues never contend.
type Store struct {
	mu       sync.RWMutex
	ix       *Index
	onChange func(gen uint64)
}

// NewStore returns an empty store. retention <= 0 keeps everything.
func NewStore(retention float64) *Store {
	return &Store{ix: NewIndex(retention)}
}

// OnChange registers a callback invoked after every mutation that moves
// the generation counter (an effective Add, including any eviction it
// triggers, or a RestoreState). The callback receives the generation the
// store moved to and runs outside the store lock, after the mutation is
// visible to queries — it may query the store but must not block for
// long, since it runs on the writer's goroutine. One mutation produces
// one callback carrying the final generation, even when it moved the
// counter several times (an Add plus the evictions it triggered);
// change-feed fan-out coalesces further downstream (see
// internal/notify). At most one
// callback can be registered; OnChange must be called before the store
// is shared across goroutines.
func (s *Store) OnChange(f func(gen uint64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onChange = f
}

// Add appends one ms-sequence and folds its stay events into the
// aggregate index. Sequences with no semantics are ignored — they
// carry nothing a query could count.
func (s *Store) Add(ms seq.MSSequence) {
	s.mu.Lock()
	before := s.ix.Generation()
	s.ix.Add(ms)
	after := s.ix.Generation()
	f := s.onChange
	s.mu.Unlock()
	if f != nil && after != before {
		f(after)
	}
}

// Len returns the number of stored sequences and semantics triples.
func (s *Store) Len() (sequences, semantics int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.Len()
}

// Generation returns the store's content-mutation counter. It is
// strictly monotonic across Add, eviction and RestoreState: equal
// generations imply byte-identical answers to every query, so the value
// is a sound cache key and HTTP freshness validator.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.Generation()
}

// SeedGeneration raises the store's generation counter to at least
// floor without changing contents and without firing the change
// callback (nothing a subscriber could observe changed — the counter
// only skipped ahead). A store already at or past floor is untouched.
// Used when a fresh store replaces one whose generations are already
// cached downstream: seeding past the predecessor (plus GenerationJump
// headroom) keeps the monotonic-generation contract — equal gens imply
// byte-identical answers — across the swap.
func (s *Store) SeedGeneration(floor uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ix := s.ix; ix.gen < floor {
		ix.gen = floor
	}
}

// Snapshot returns a copy of the stored sequences, safe to use after
// further Adds. The per-sequence semantics slices are shared (they are
// append-only once stored).
func (s *Store) Snapshot() []seq.MSSequence {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.Snapshot()
}

// SnapshotState captures the store's index state under the read lock;
// see Index.SnapshotState.
func (s *Store) SnapshotState() IndexState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.SnapshotState()
}

// RestoreState replaces the store's contents with a captured state
// (including its retention), atomically with respect to concurrent
// queries. The store is unchanged when the state is invalid.
func (s *Store) RestoreState(st IndexState) error {
	ix, err := RestoreIndex(st)
	if err != nil {
		return err
	}
	s.mu.Lock()
	// Keep the generation strictly monotonic across the swap: a restore
	// into a store that has already moved past the captured (jumped)
	// generation must still look like new content to every cache.
	if cur := s.ix.Generation(); ix.gen <= cur {
		ix.gen = cur + 1
	}
	s.ix = ix
	after := s.ix.Generation()
	f := s.onChange
	s.mu.Unlock()
	// A restore always moves the generation (the jump or the clamp above
	// guarantees it), so it is unconditionally a change event.
	if f != nil {
		f(after)
	}
	return nil
}

// TopKPopularRegions answers a TkPRQ over the current contents.
func (s *Store) TopKPopularRegions(q []indoor.RegionID, w Window, k int) []RegionCount {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.TopKPopularRegions(q, w, k)
}

// TopKFrequentPairs answers a TkFRPQ over the current contents.
func (s *Store) TopKFrequentPairs(q []indoor.RegionID, w Window, k int) []PairCount {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.TopKFrequentPairs(q, w, k)
}

// TopKPopularRegionsGen answers a TkPRQ and returns the generation the
// answer was computed at, atomically under one read lock — the pair is
// safe to memoize: any later read at the same generation would get the
// same bytes.
func (s *Store) TopKPopularRegionsGen(q []indoor.RegionID, w Window, k int) ([]RegionCount, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.TopKPopularRegions(q, w, k), s.ix.Generation()
}

// TopKFrequentPairsGen answers a TkFRPQ and returns the generation the
// answer was computed at, atomically under one read lock.
func (s *Store) TopKFrequentPairsGen(q []indoor.RegionID, w Window, k int) ([]PairCount, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.TopKFrequentPairs(q, w, k), s.ix.Generation()
}
