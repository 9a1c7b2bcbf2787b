package main

// Workload fleet_query: msrouter in front of two msserve backends,
// each venue restored from a stored history. One connection reads
// like a dashboard; the other trickles fragment-closing feeds and, at
// fixed points, migrates one venue away and back.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"c2mn"
	"c2mn/internal/query"
	"c2mn/internal/snapshot"
)

const (
	fleetReadRate = 80.0 // reads per second on the read connection
	fleetFeedRate = 55.0 // feeds per second on the write connection
	// fleetHistory stored sequences per venue, 16k in all: the size of
	// the repository's query and snapshot benchmarks.
	fleetHistory     = 8000
	fleetHistorySpan = 20000.0 // seconds the stored history covers
	fleetWindowPool  = 8
	fleetFreshShare  = 0.5 // reads over a window outside the pool
	migratedVenue    = "north"
)

func runFleetQuery(ctx context.Context, r *run) error {
	snaps := map[string][]byte{}
	for i, v := range twoVenues {
		b, err := historySnapshot(r.w, v, fleetHistory, fleetHistorySpan, r.seed*7+int64(i))
		if err != nil {
			return err
		}
		snaps[v] = b
	}
	setup := newLane(r.acct, r.tr)
	defer setup.close()
	var backends []string
	f, err := r.bootRepeated(func(i int) (*fleet, error) {
		fl := &fleet{}
		backends = backends[:0]
		for b := 0; b < 2; b++ {
			name := fmt.Sprintf("msserve-%d-%d", i, b)
			p, err := r.msserve(name, "-venue", r.venueFlag("north"), "-venue", r.venueFlag("south"),
				"-snapshot-dir", mkdir(r.dir, name+"-snapshots"))
			if err != nil {
				return fl, err
			}
			fl.procs = append(fl.procs, p)
			backends = append(backends, p.base)
		}
		rt, err := startProc(r.bin+"/msrouter", fmt.Sprintf("msrouter-%d", i), r.dir, "routing ",
			"-backends", strings.Join(backends, ","), "-admin-token", adminToken,
			"-backend-token", adminToken, "-health-interval", "100ms", "-drain", "2s")
		if err != nil {
			return fl, err
		}
		fl.procs = append(fl.procs, rt)
		for _, p := range fl.procs {
			if err := ready(ctx, setup.client, p.base, twoVenues); err != nil {
				return fl, err
			}
		}
		if err := routerSeesAll(ctx, setup.client, rt.base, len(backends), twoVenues); err != nil {
			return fl, err
		}
		for _, v := range twoVenues {
			if _, err := setup.admin(ctx, http.MethodPut, rt.base+"/v1/admin/venues/"+v+"/snapshot/file", snaps[v]); err != nil {
				return fl, err
			}
		}
		return fl, nil
	})
	if err != nil {
		return err
	}
	defer f.stop()
	router := f.procs[2].base
	home, err := owner(ctx, setup, router, migratedVenue)
	if err != nil {
		return err
	}
	away := backends[0]
	if away == home {
		away = backends[1]
	}

	// Plan the two connections' traffic.
	rng := rand.New(rand.NewSource(r.seed + 2))
	batches, err := planFeeds(r.w.space, streamSpec{venues: twoVenues, objectsPerVenue: 12,
		batches: int(fleetFeedRate * r.seconds), visitLo: 60, visitHi: 200, chunks: 10, mu: 3}, r.seed)
	if err != nil {
		return err
	}
	pool := windowPool(rng, fleetWindowPool, 0, fleetHistorySpan)
	reads := make([]readOp, int(fleetReadRate*r.seconds))
	for i := range reads {
		q := readOp{kind: c2mn.QueryPopularRegions, k: 5, win: pool[rng.Intn(len(pool))]}
		if rng.Intn(2) == 1 {
			q.kind = c2mn.QueryFrequentPairs
		}
		if rng.Float64() < fleetFreshShare {
			q.win = randomWindow(rng, 0, fleetHistorySpan, windowShare(i%len(pool), len(pool)))
		}
		switch x := rng.Float64(); {
		case x < 0.4:
			q.venue = twoVenues[rng.Intn(2)]
		case x < 0.7: // fleet GET
		default:
			q.k, q.pageSize = 10, 3
			if rng.Intn(2) == 1 {
				q.venue = twoVenues[rng.Intn(2)]
			}
		}
		reads[i] = q
	}

	before := map[string]string{}
	for _, v := range twoVenues {
		if before[v], err = venueETag(ctx, setup, router, v); err != nil {
			return err
		}
	}
	readLane, writeLane := newLane(r.acct, r.tr), newLane(r.acct, r.tr)
	defer readLane.close()
	defer writeLane.close()
	rd := newReader(readLane, router)
	fd := newFeeder(writeLane, router, batches)

	m, err := startMeter(f)
	if err != nil {
		return err
	}
	start := time.Now()
	var migrateMs []float64
	var migrateIDs []string
	// The dashboard pauses while a migration runs: msrouter's settle
	// check compares the venue's whole EngineStats, query-cache
	// counters included, so a venue that keeps answering reads never
	// settles and the migration fails after 100 polls. The read clock
	// stops for the pause, as the write clock does.
	var pause sync.RWMutex
	var wg sync.WaitGroup
	readSched := newSchedule(start, fleetReadRate)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, q := range reads {
			due, ok := readSched.wait(ctx)
			if !ok {
				return
			}
			t := time.Now()
			pause.RLock()
			if waited := time.Since(t); waited > time.Millisecond {
				readSched.pause(waited)
				due = due.Add(waited)
			}
			rd.send(ctx, q, due)
			pause.RUnlock()
		}
	}()
	sched := newSchedule(start, fleetFeedRate)
	marks := map[int]string{len(batches) / 3: away, 2 * len(batches) / 3: home}
	for i := range batches {
		if to, ok := marks[i]; ok {
			pause.Lock()
			t := time.Now()
			if to == home {
				// The migration retired home's copy; the target must hold
				// the venue cold again.
				body, _ := json.Marshal(map[string]string{"venue": migratedVenue,
					"space": r.dir + "/space.json", "model": r.dir + "/model.json"})
				if _, err := writeLane.admin(ctx, http.MethodPost, home+"/v1/admin/venues", body); err != nil {
					r.res.problem("reloading %s on %s: %v", migratedVenue, home, err)
				}
			}
			ms, id, err := migrate(ctx, writeLane, router, migratedVenue, to)
			r.acct.record("migrate", 0, err == nil, false)
			if err != nil {
				r.res.problem("migrating %s to %s: %v", migratedVenue, to, err)
			}
			migrateMs = append(migrateMs, ms)
			migrateIDs = append(migrateIDs, id)
			sched.pause(time.Since(t))
			pause.Unlock()
		}
		due, ok := sched.wait(ctx)
		if !ok {
			break
		}
		fd.send(ctx, due)
	}
	wg.Wait()
	r.lateness("read", readSched)
	r.lateness("write", sched)
	elapsed := time.Since(start)
	cpu, err := m.stop()
	if err != nil {
		return err
	}

	ref, err := newReference(r.w, twoVenues, snaps)
	if err != nil {
		return err
	}
	if err := ref.feedAll(r, batches[:fd.sent], fd.acked[:fd.sent]); err != nil {
		return err
	}
	ref.checkFinal(ctx, r, readLane, router, finalQueries(twoVenues, 10, pool[0]))
	r.res.gate("completed_sequences", fd.completed() > 0)
	for _, v := range twoVenues {
		after, err := venueETag(ctx, setup, router, v)
		r.res.gate("generation_advanced_"+v, err == nil && after != before[v])
	}
	if final, err := owner(ctx, setup, router, migratedVenue); err != nil || final != home {
		r.res.problem("%s ended on %q (%v), want %q after migrating away and back", migratedVenue, final, err, home)
	}

	rss, err := f.peakRSSMB()
	if err != nil {
		return err
	}
	attempted := len(rd.lat.due) + len(fd.lat.due)
	// Records per second count the time feeds flowed, not the
	// migrations' pauses.
	fedFor := elapsed - sched.shift
	r.setE2E(start, elapsed, m, rd.lat.service, fd.lat.service, 1000*cpu/float64(attempted), float64(fd.records)/fedFor.Seconds(), rss)
	r.latencies("query", rd.lat)
	r.latencies("feed", fd.lat)
	r.res.Named["migrate_ms"] = median(migrateMs)
	r.res.Named["migrations"] = float64(len(migrateMs))
	qc := r.acct.snapshot()["query"]
	r.res.Named["http.not_modified_ratio"] = float64(qc.NotModified) / float64(max(qc.Conditional, 1))
	r.res.Named["http.conditional_queries"] = float64(qc.Conditional)

	if !r.tr.on {
		return nil
	}
	r.primary = "query"
	hop, err := routerHop(ctx, readLane, router, home, readOp{kind: c2mn.QueryPopularRegions, venue: migratedVenue, win: pool[0], k: 5})
	if err != nil {
		return err
	}
	r.res.Named["router.hop_ms"] = hop
	rp, err := newReplayer(r)
	if err != nil {
		return err
	}
	r.rp = rp
	stores := map[string]*query.Store{}
	for _, v := range twoVenues {
		sf, err := snapshot.Read(bytes.NewReader(snaps[v]))
		if err != nil {
			return err
		}
		stores[v] = query.NewStore(0)
		if err := stores[v].RestoreState(snapshot.DecodeIndex(sf.Index)); err != nil {
			return err
		}
	}
	replayFeeds(r, rp, fd, stores, "", 0)
	for i, ids := range rd.ids {
		for _, id := range ids {
			replayRead(r, id, stores, twoVenues, reads[i])
		}
	}
	totals := layerTotals(r.tr.all())
	r.res.Named["query.topk_us"] = float64(totals["query.topk"].SelfNs) / 1e3 / float64(max(totals["query.topk"].Spans, 1))
	r.res.Named["query.merge_us"] = float64(totals["query.merge"].SelfNs) / 1e3 / float64(max(totals["query.merge"].Spans, 1))
	return replaySnapshot(r, ref, migrateIDs)
}

// replaySnapshot times the snapshot codec on the migrated venue's final
// state, under the first migration request.
func replaySnapshot(r *run, ref *reference, migrateIDs []string) error {
	e, err := ref.reg.Engine(migratedVenue)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		return err
	}
	data := buf.Bytes()
	parent := ""
	if len(migrateIDs) > 0 {
		parent = migrateIDs[0]
	}
	var reads, writes []float64
	for i := 0; i < 5; i++ {
		var sf *snapshot.File
		start := time.Now()
		r.tr.timed(parent, "snapshot.read", 1, func() { sf, err = snapshot.Read(bytes.NewReader(data)) })
		reads = append(reads, sinceMs(start))
		if err != nil {
			return err
		}
		buf.Reset()
		start = time.Now()
		r.tr.timed(parent, "snapshot.write", 1, func() { err = snapshot.Write(&buf, sf) })
		writes = append(writes, sinceMs(start))
		if err != nil {
			return err
		}
	}
	r.res.Named["snapshot.read_ms"] = median(reads)
	r.res.Named["snapshot.write_ms"] = median(writes)
	r.res.Named["snapshot.bytes"] = float64(len(data))
	return nil
}

// routerSeesAll waits until the router's health checks report all n
// backends ready and hosting every venue. Before that the router may
// place a venue on the one backend it has seen so far and move it once
// it sees the other, so a snapshot restored through it could land on a
// backend that does not keep the venue.
func routerSeesAll(ctx context.Context, c *http.Client, router string, n int, venues []string) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, router+"/v1/admin/backends", nil)
		if err != nil {
			return err
		}
		req.Header.Set("Authorization", "Bearer "+adminToken)
		var list struct {
			Backends []struct {
				Ready  bool     `json:"ready"`
				Venues []string `json:"venues"`
			} `json:"backends"`
		}
		if resp, err := c.Do(req); err == nil {
			err = json.NewDecoder(resp.Body).Decode(&list)
			resp.Body.Close()
			seen := 0
			for _, b := range list.Backends {
				if b.Ready && len(b.Venues) == len(venues) {
					seen++
				}
			}
			if err == nil && resp.StatusCode == http.StatusOK && seen == n {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("router %s did not see %d ready backends: %w", router, n, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// owner asks the router which backend serves venue.
func owner(ctx context.Context, l *lane, router, venue string) (string, error) {
	body, err := l.admin(ctx, http.MethodGet, router+"/v1/admin/assignments", nil)
	if err != nil {
		return "", err
	}
	var resp struct {
		Assignments []struct {
			Venue, Backend string
		} `json:"assignments"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", err
	}
	for _, a := range resp.Assignments {
		if a.Venue == venue && a.Backend != "" {
			return a.Backend, nil
		}
	}
	return "", fmt.Errorf("router has no owner for %q", venue)
}

// migrate moves venue to backend to through the router and returns the
// call's duration.
func migrate(ctx context.Context, l *lane, router, venue, to string) (float64, string, error) {
	body, _ := json.Marshal(map[string]string{"venue": venue, "to": to})
	rep := l.do(ctx, "migrate", http.MethodPost, router+"/v1/admin/migrate", body,
		map[string]string{"Authorization": "Bearer " + adminToken})
	if rep.err != nil {
		return rep.ms, rep.id, rep.err
	}
	if rep.status/100 != 2 {
		return rep.ms, rep.id, fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(rep.body))
	}
	return rep.ms, rep.id, nil
}

// venueETag is the freshness validator of a venue-scoped query: it
// changes exactly when the venue's store generation moves.
func venueETag(ctx context.Context, l *lane, base, venue string) (string, error) {
	body, _ := json.Marshal(c2mn.Query{Kind: c2mn.QueryPopularRegions, Scope: c2mn.ScopeVenue, Venues: []string{venue}})
	rep := l.do(ctx, "check", http.MethodPost, base+"/v1/query", body, nil)
	l.acct.record("check", rep.status, rep.ok(), false)
	if !rep.ok() || rep.header.Get("ETag") == "" {
		return "", fmt.Errorf("no ETag on %s's query: status %d, %v", venue, rep.status, rep.err)
	}
	return rep.header.Get("ETag"), nil
}

// routerHop is the median extra latency of a read through the router
// over the same read sent straight to the venue's owner, alternating
// the two paths.
func routerHop(ctx context.Context, l *lane, router, backend string, q readOp) (float64, error) {
	var via, direct []float64
	for i := 0; i < 200; i++ {
		for _, base := range []string{router, backend} {
			rep := l.do(ctx, "hop", http.MethodGet, q.getURL(base), nil, nil)
			l.acct.record("hop", rep.status, rep.ok(), false)
			if !rep.ok() {
				return 0, fmt.Errorf("hop probe %s: status %d, %v", q.getURL(base), rep.status, rep.err)
			}
			if base == router {
				via = append(via, rep.ms)
			} else {
				direct = append(direct, rep.ms)
			}
		}
	}
	return median(via) - median(direct), nil
}
