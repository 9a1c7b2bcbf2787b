package main

// Workload ingest: an open loop of feed batches against one msserve
// holding two venues, with one /v1/watch subscription measuring how
// soon each stored sequence reaches a dashboard.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"time"

	"c2mn"
	"c2mn/internal/notify"
	"c2mn/internal/query"
	"c2mn/internal/seq"
)

const (
	// ingestRate is the offered request rate: about 50% of the ~350
	// requests/s one feed connection sustains against this batch mix on
	// a 2-core machine, so queueing shows without a growing backlog. At
	// 70% the run-to-run spread of the latency quantiles was 0.3-0.5 of
	// their median, too wide for any bound the benchmark may set.
	ingestRate = 175.0
	// ingestQueryShare of the requests are venue-scoped reads.
	ingestQueryShare = 0.05
)

var twoVenues = []string{"north", "south"}

// wireRecord is the /v1 record schema.
type wireRecord struct {
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Floor int     `json:"floor"`
	T     float64 `json:"t"`
}

func sequenceBody(object string, records []c2mn.Record) []byte {
	recs := make([]wireRecord, len(records))
	for i, r := range records {
		recs[i] = wireRecord{X: r.Loc.X, Y: r.Loc.Y, Floor: r.Loc.Floor, T: r.T}
	}
	b, _ := json.Marshal(map[string]any{"object_id": object, "records": recs}) // plain values always marshal
	return b
}

// ready waits until base answers /v1/readyz and serves every venue.
func ready(ctx context.Context, c *http.Client, base string, venues []string) error {
	if err := waitReady(ctx, c, base, "/v1/readyz"); err != nil {
		return err
	}
	for _, v := range venues {
		if err := waitReady(ctx, c, base, "/v1/venues/"+url.PathEscape(v)+"/model"); err != nil {
			return err
		}
	}
	return nil
}

// feeder sends planned feed batches and remembers what the server
// acknowledged, for the oracle and the replay.
type feeder struct {
	l       *lane
	base    string
	batches []feedBatch
	bodies  [][]byte
	acked   []int    // completed_sequences per batch, -1 if not acknowledged
	ids     []string // request id per batch
	sent    int
	records int
	lat     latencies
	// acks lists every acknowledgement that completed sequences.
	acks []feedAck
	gens map[string]uint64 // expected store generation per venue
}

type feedAck struct {
	venue    string
	gen      uint64
	sent, at time.Time // request sent, acknowledgement read
}

func newFeeder(l *lane, base string, batches []feedBatch) *feeder {
	f := &feeder{l: l, base: base, batches: batches, acked: make([]int, len(batches)),
		ids: make([]string, len(batches)), gens: map[string]uint64{}}
	for i, b := range batches {
		f.bodies = append(f.bodies, sequenceBody(b.object, b.records))
		f.acked[i] = -1
	}
	return f
}

// send posts the next batch, due at due.
func (f *feeder) send(ctx context.Context, due time.Time) {
	i := f.sent
	f.sent++
	b := f.batches[i]
	sent := time.Now()
	rep := f.l.do(ctx, "feed", http.MethodPost, f.base+"/v1/venues/"+url.PathEscape(b.venue)+"/feed", f.bodies[i], nil)
	f.ids[i] = rep.id
	var resp struct {
		Completed *int `json:"completed_sequences"`
	}
	ok := rep.ok() && json.Unmarshal(rep.body, &resp) == nil && resp.Completed != nil
	f.l.acct.record("feed", rep.status, ok, false)
	f.lat.add(due, sent, rep)
	if !ok {
		return
	}
	f.acked[i] = *resp.Completed
	f.records += len(b.records)
	if *resp.Completed > 0 {
		f.gens[b.venue] += uint64(*resp.Completed)
		f.acks = append(f.acks, feedAck{venue: b.venue, gen: f.gens[b.venue], sent: sent, at: time.Now()})
	}
}

func (f *feeder) completed() int {
	n := 0
	for _, c := range f.acked[:f.sent] {
		n += max(c, 0)
	}
	return n
}

// pushLags pairs each completing acknowledgement with the first watch
// event whose generation for that venue covers it, and returns two
// lags per pair: from the acknowledgement (an event can beat the
// acknowledgement to the client, giving a negative lag; early counts
// those) and from when the feed was sent, the freshness a dashboard
// sees.
func pushLags(acks []feedAck, events []watchEvent) (fromAck []float64, fromSend series, early int) {
	next := map[string]int{}
	for _, a := range acks {
		i := next[a.venue]
		for i < len(events) && events[i].gens[a.venue] < a.gen {
			i++
		}
		next[a.venue] = i
		if i == len(events) {
			continue
		}
		lag := float64(events[i].at.Sub(a.at)) / 1e6
		if lag < 0 {
			early++
		}
		fromAck = append(fromAck, lag)
		fromSend.add(a.sent, float64(events[i].at.Sub(a.sent))/1e6)
	}
	return fromAck, fromSend, early
}

func runIngest(ctx context.Context, r *run) error {
	setup := newLane(r.acct, r.tr)
	defer setup.close()
	f, err := r.bootRepeated(func(i int) (*fleet, error) {
		p, err := r.msserve(fmt.Sprintf("msserve-%d", i), "-venue", r.venueFlag("north"), "-venue", r.venueFlag("south"))
		if err != nil {
			return nil, err
		}
		fl := &fleet{procs: []*proc{p}}
		return fl, ready(ctx, setup.client, p.base, twoVenues)
	})
	if err != nil {
		return err
	}
	defer f.stop()
	base := f.procs[0].base

	// Plan: feed batches, with a share of the slots turned into reads.
	total := int(ingestRate * r.seconds)
	rng := rand.New(rand.NewSource(r.seed + 1))
	isRead := make([]bool, total)
	nFeeds := 0
	for i := range isRead {
		isRead[i] = rng.Float64() < ingestQueryShare
		if !isRead[i] {
			nFeeds++
		}
	}
	batches, err := planFeeds(r.w.space, streamSpec{venues: twoVenues, objectsPerVenue: 16, batches: nFeeds,
		visitLo: 40, visitHi: 160, chunks: 1, mu: 3}, r.seed)
	if err != nil {
		return err
	}
	hiT := batches[len(batches)-1].records[0].T
	windows := windowPool(rng, 6, 0, hiT)
	var reads []readOp
	for _, read := range isRead {
		if read {
			kind := c2mn.QueryPopularRegions
			if rng.Intn(2) == 1 {
				kind = c2mn.QueryFrequentPairs
			}
			reads = append(reads, readOp{kind: kind, venue: twoVenues[rng.Intn(2)], win: windows[rng.Intn(len(windows))], k: 5})
		}
	}

	l := newLane(r.acct, r.tr)
	defer l.close()
	fd := newFeeder(l, base, batches)
	rd := newReader(l, base)
	k := r.w.space.NumRegions()
	wt, err := startWatcher(ctx, r, fmt.Sprintf("%s/v1/watch?kind=popular-regions&scope=fleet&k=%d", base, k))
	if err != nil {
		return err
	}
	initial := wt.log()[0].gens
	for _, v := range twoVenues {
		fd.gens[v] = initial[v]
	}

	m, err := startMeter(f)
	if err != nil {
		return err
	}
	sched := newSchedule(time.Now(), ingestRate)
	nextRead := 0
	for _, read := range isRead {
		due, ok := sched.wait(ctx)
		if !ok {
			break
		}
		if read {
			rd.send(ctx, reads[nextRead], due)
			nextRead++
		} else {
			fd.send(ctx, due)
		}
	}
	elapsed := time.Since(sched.start)
	cpu, err := m.stop()
	if err != nil {
		return err
	}
	r.lateness("load", sched)

	// Quiesce: wait for the stream to reach the final generations.
	deadline := time.Now().Add(5 * time.Second)
	for !wt.covered(fd.gens) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	wt.stop()
	events := wt.log()
	lags, fresh, early := pushLags(fd.acks, events)
	deltas := 0
	for _, ev := range events {
		if ev.name == "delta" {
			deltas++
		}
	}
	r.acct.record("watch", http.StatusOK, wt.err == nil && wt.bad == 0, false)
	if wt.err != nil || wt.bad > 0 {
		r.res.problem("watch stream: %v, %d malformed event ids", wt.err, wt.bad)
	}

	// Oracle: the identical batches through an in-process registry.
	ref, err := newReference(r.w, twoVenues, nil)
	if err != nil {
		return err
	}
	if err := ref.feedAll(r, batches[:fd.sent], fd.acked[:fd.sent]); err != nil {
		return err
	}
	ref.checkFinal(ctx, r, l, base, finalQueries(twoVenues, k, windows[0]))

	last := map[string]uint64{}
	if len(events) > 0 {
		last = events[len(events)-1].gens
	}
	r.res.gate("completed_sequences", fd.completed() > 0)
	for _, v := range twoVenues {
		r.res.gate("generation_advanced_"+v, last[v] > initial[v] && last[v] >= fd.gens[v])
	}
	r.res.gate("watch_deltas", deltas > 0)
	r.res.gate("push_lag_samples", len(lags) > 0)

	rss, err := f.peakRSSMB()
	if err != nil {
		return err
	}
	attempted := len(fd.lat.due) + len(rd.lat.due)
	r.setE2E(sched.start, elapsed, m, fd.lat.service, fresh, 1000*cpu/float64(attempted), float64(fd.records)/elapsed.Seconds(), rss)
	r.latencies("feed", fd.lat)
	r.latencyNamed("push_lag", lags)
	r.latencyNamed("freshness", fresh.ms)
	r.latencies("query", rd.lat)
	r.res.Named["push_lag_early"] = float64(early)
	r.res.Named["completed_sequences"] = float64(fd.completed())
	r.res.Named["watch_deltas"] = float64(deltas)

	if !r.tr.on {
		return nil
	}
	r.primary = "feed"
	rp, err := newReplayer(r)
	if err != nil {
		return err
	}
	r.rp = rp
	stores := map[string]*query.Store{}
	for _, v := range twoVenues {
		stores[v] = query.NewStore(0)
	}
	replayFeeds(r, rp, fd, stores, wt.id, k)
	for i, q := range reads[:nextRead] {
		for _, id := range rd.ids[i] {
			replayRead(r, id, stores, twoVenues, q)
		}
	}
	return nil
}

// replayFeeds replays the acknowledged feed batches: segmentation, and
// for every fragment it closes the inference, the store add and the
// change-feed publish under the feed's request; the watch stream's
// re-query and diff under the watch request (skipped when watchID is
// empty: no subscription was open). It files the seq,
// query.add and notify figures into res.Named.
func replayFeeds(r *run, rp *replayer, fd *feeder, stores map[string]*query.Store, watchID string, k int) {
	tr := r.tr
	streams := seq.NewStreamSet(eta, psi)
	hub := notify.NewHub()
	sub := hub.Subscribe(nil, 0)
	defer sub.Close()
	// The subscription's standing query: fleet popular regions over all
	// of time, every region ranked.
	watchRead := readOp{kind: c2mn.QueryPopularRegions, win: c2mn.Window{Start: -math.MaxFloat64, End: math.MaxFloat64}, k: k}
	var prev notify.Answer
	takes, resyncs, closed, closedRecords, fed := 0, 0, 0, 0, 0
	for i, b := range fd.batches[:fd.sent] {
		if fd.acked[i] < 0 {
			continue
		}
		parent := fd.ids[i]
		var done []seq.PSequence
		tr.timed(parent, "seq.feed", len(b.records), func() {
			sg := streams.Get(seq.StreamKey{Venue: b.venue, Object: b.object})
			for _, rec := range b.records {
				if p, ok := sg.Feed(rec); ok {
					done = append(done, p)
				}
			}
		})
		fed += len(b.records)
		if len(done) != fd.acked[i] {
			r.res.problem("replay of feed %d closed %d fragments, server acknowledged %d", i, len(done), fd.acked[i])
		}
		for j := range done {
			p := &done[j]
			closed++
			closedRecords += p.Len()
			_, ms := rp.annotate(parent, p)
			st := stores[b.venue]
			tr.timed(parent, "query.add", 1, func() { st.Add(ms) })
			gen := st.Generation()
			tr.timed(parent, "notify.publish", 1, func() { hub.Publish(b.venue, gen) })

			if watchID == "" {
				continue
			}
			_, resync := sub.Take()
			takes++
			if resync {
				resyncs++
			}
			rc, _ := replayRead(r, watchID, stores, twoVenues, watchRead)
			next := notify.Answer{Kind: string(c2mn.QueryPopularRegions), Regions: rc}
			tr.timed(watchID, "notify.diff", 1, func() { notify.Apply(prev, notify.Diff(prev, next)) })
			prev = next
		}
	}
	totals := layerTotals(tr.all())
	n := r.res.Named
	n["seq.feed_ns_per_record"] = float64(totals["seq.feed"].SelfNs) / float64(max(fed, 1))
	n["seq.fragments_closed"] = float64(closed)
	n["seq.records_per_fragment"] = float64(closedRecords) / float64(max(closed, 1))
	n["query.add_us"] = float64(totals["query.add"].SelfNs) / 1e3 / float64(max(closed, 1))
	n["notify.publish_us"] = float64(totals["notify.publish"].SelfNs) / 1e3 / float64(max(closed, 1))
	n["notify.diff_us"] = float64(totals["notify.diff"].SelfNs) / 1e3 / float64(max(closed, 1))
	n["notify.resync_ratio"] = float64(resyncs) / float64(max(takes, 1))
	n["notify.takes"] = float64(takes)
}
