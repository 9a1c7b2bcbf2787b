package main

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"c2mn"
	"c2mn/internal/seq"
	"c2mn/internal/sim"
)

func testSpace(t *testing.T) *c2mn.Space {
	t.Helper()
	space, err := c2mn.GenerateBuilding(sim.SmallBuilding(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

var testStreams = streamSpec{venues: twoVenues, objectsPerVenue: 4, batches: 120,
	visitLo: 60, visitHi: 200, chunks: 3, mu: 3}

func TestSameSeedSameInputs(t *testing.T) {
	space := testSpace(t)
	a, err := planFeeds(space, testStreams, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := planFeeds(space, testStreams, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("planFeeds differs between two calls with the same seed")
	}
	c, err := planFeeds(space, testStreams, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("planFeeds ignores its seed")
	}
	ta, err := planTrajectories(space, 4, 50, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := planTrajectories(space, 4, 50, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ta, tb) {
		t.Fatal("planTrajectories differs between two calls with the same seed")
	}
	w := &world{space: space, spaceHash: "s", modelHash: "m"}
	sa, err := historySnapshot(w, "north", 50, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := historySnapshot(w, "north", 50, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatal("historySnapshot differs between two calls with the same seed")
	}
}

// The planned streams must close fragments on the feed path: each
// object's records, concatenated in send order, split under the
// servers' η and ψ into one fragment per visit, and a streaming
// segmenter fed batch by batch closes every visit but the last.
func TestStreamsCloseFragments(t *testing.T) {
	space := testSpace(t)
	batches, err := planFeeds(space, testStreams, 3)
	if err != nil {
		t.Fatal(err)
	}
	records := map[string][]c2mn.Record{}
	sent := map[string]int{}
	streams := seq.NewStreamSet(eta, psi)
	closed := map[string]int{}
	for _, b := range batches {
		key := b.venue + "/" + b.object
		if prev := records[key]; len(prev) > 0 && b.records[0].T < prev[len(prev)-1].T {
			t.Fatalf("%s: batch starts at t=%g before the previous batch ended", key, b.records[0].T)
		}
		records[key] = append(records[key], b.records...)
		sent[key]++
		sg := streams.Get(seq.StreamKey{Venue: b.venue, Object: b.object})
		for _, r := range b.records {
			if _, ok := sg.Feed(r); ok {
				closed[key]++
			}
		}
	}
	totalClosed := 0
	for key, recs := range records {
		visits := (sent[key] + testStreams.chunks - 1) / testStreams.chunks
		if got := len(seq.Preprocess(key, recs, eta, psi)); got != visits {
			t.Errorf("%s: Preprocess made %d fragments of %d visits", key, got, visits)
		}
		if closed[key] != visits-1 {
			t.Errorf("%s: the segmenter closed %d fragments on the feed path, want %d", key, closed[key], visits-1)
		}
		totalClosed += closed[key]
	}
	if totalClosed == 0 {
		t.Fatal("no fragment closed on the feed path")
	}
}

func TestPercentile(t *testing.T) {
	values := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.99, 10}, {0.1, 1}, {0.11, 2}, {1, 10},
	} {
		if got := percentile(values, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if values[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
	many := make([]float64, 1000)
	for i := range many {
		many[i] = float64(i + 1)
	}
	if got := percentile(many, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: "req", Name: "http.feed", Start: 0, End: 100},
		// Two overlapping children count once: [10, 50) covers 40.
		{ID: "a", Parent: "req", Name: "features.context", Start: 10, End: 30},
		{ID: "b", Parent: "req", Name: "core.annotate", Start: 20, End: 50},
		// A replay child after the request counts by its own length.
		{ID: "c", Parent: "req", Name: "seq.merge", Start: 200, End: 220},
		{ID: "d", Parent: "b", Name: "features.region_scores", Start: 25, End: 35},
		// A child longer than its parent floors the parent at zero.
		{ID: "short", Name: "http.query", Start: 0, End: 10},
		{ID: "long", Parent: "short", Name: "query.topk", Start: 300, End: 350},
	}
	got := selfTimes(spans)
	want := map[string]int64{"req": 40, "a": 20, "b": 20, "c": 20, "d": 10, "short": 0, "long": 50}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	totals := layerTotals(spans)
	if lt := totals["core.annotate"]; lt.Spans != 1 || lt.SelfNs != 20 {
		t.Errorf("layerTotals[core.annotate] = %+v", lt)
	}
}

func TestPushLags(t *testing.T) {
	t0 := testTime(0)
	acks := []feedAck{
		{venue: "north", gen: 1, at: testTime(10), sent: testTime(2)},
		{venue: "south", gen: 1, at: testTime(12), sent: testTime(11)},
		{venue: "north", gen: 3, at: testTime(20), sent: testTime(15)},
	}
	events := []watchEvent{
		{at: t0, gens: map[string]uint64{"north": 0, "south": 0}},
		{at: testTime(9), gens: map[string]uint64{"north": 1, "south": 0}},
		{at: testTime(30), gens: map[string]uint64{"north": 3, "south": 1}},
	}
	fromAck, fromSend, early := pushLags(acks, events)
	if want := []float64{-1, 18, 10}; !reflect.DeepEqual(fromAck, want) {
		t.Errorf("lags from ack = %v, want %v", fromAck, want)
	}
	if want := []float64{7, 19, 15}; !reflect.DeepEqual(fromSend.ms, want) {
		t.Errorf("lags from send = %v, want %v", fromSend.ms, want)
	}
	if early != 1 {
		t.Errorf("early = %d, want 1", early)
	}
}

func testTime(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSteady(t *testing.T) {
	var s series
	// Ten one-second windows of ten samples each, valued by window;
	// one sample after the last window joins it.
	const n = 10
	for sec := 0; sec < n; sec++ {
		for i := 0; i < 10; i++ {
			s.add(testTime(sec*1000+i*10), float64(sec+1))
		}
	}
	s.add(testTime(20000), 10)
	windows := func(share ...float64) stealWindows {
		w := stealWindows{share: share}
		for sec := range share {
			w.at = append(w.at, testTime(sec*1000))
		}
		return w
	}
	if got := s.steady(0.5, windows(make([]float64, n)...)); got != 6 {
		t.Errorf("median with no stolen time = %v, want 6", got)
	}
	if got := s.steady(0.5, stealWindows{}); got != 6 {
		t.Errorf("median with no windows = %v, want 6", got)
	}
	// Stolen time at or below the floor leaves every window in.
	if got := s.steady(1, windows(0, 0.02, 0, 0.02, 0, 0.02, 0, 0.02, 0, 0.02)); got != 10 {
		t.Errorf("max with stolen time under the floor = %v, want 10", got)
	}
	// A burst in windows 3-9 leaves only windows 0-2.
	if got := s.steady(0.5, windows(0, 0, 0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)); got != 2 {
		t.Errorf("median over the windows without the burst = %v, want 2", got)
	}
	// Stolen time above the floor everywhere: the least stolen windows
	// count.
	high := windows(0.3, 0.2, 0.3, 0.3, 0.2, 0.3, 0.3, 0.3, 0.2, 0.3)
	if got := s.steady(1, high); got != 9 {
		t.Errorf("max over the least stolen windows = %v, want 9", got)
	}
	if got := s.steady(0, high); got != 2 {
		t.Errorf("min over the least stolen windows = %v, want 2", got)
	}
}

func TestStratifiedOrder(t *testing.T) {
	const n, strata = 64, 8
	order := stratifiedOrder(rand.New(rand.NewSource(3)), n, strata)
	seen := make([]bool, n)
	for _, i := range order {
		if seen[i] {
			t.Fatalf("index %d appears twice", i)
		}
		seen[i] = true
	}
	if len(order) != n {
		t.Fatalf("order has %d indices, want %d", len(order), n)
	}
	// Every round of strata consecutive requests holds one index of
	// each band.
	for r := 0; r < n/strata; r++ {
		bands := map[int]bool{}
		for _, i := range order[r*strata : (r+1)*strata] {
			bands[i/(n/strata)] = true
		}
		if len(bands) != strata {
			t.Errorf("round %d covers %d bands, want %d", r, len(bands), strata)
		}
	}
}
