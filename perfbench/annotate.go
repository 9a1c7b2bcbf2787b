package main

// Workload annotate: a closed loop of two clients against one msserve,
// each request a one-shot annotate of a whole trajectory. Nothing is
// stored, so the store, change feed and router are out of the path.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

const (
	annotateClients = 2
	// The trajectory pool: log-uniform lengths between the bounds, half
	// at each of two positioning-error levels.
	annotatePool  = 512
	annotateMinN  = 50
	annotateMaxN  = 2500
	annotateVenue = "north"
	// annotateStrata is how many length bands a client's request order
	// cycles through: every annotateStrata consecutive requests hold
	// one trajectory of each band.
	annotateStrata = 16
	// annotateWarmup of untimed requests precede the measured phase.
	annotateWarmup = 2 * time.Second
)

func runAnnotate(ctx context.Context, r *run) error {
	setup := newLane(r.acct, r.tr)
	defer setup.close()
	f, err := r.bootRepeated(func(i int) (*fleet, error) {
		p, err := r.msserve(fmt.Sprintf("msserve-%d", i), "-venue", r.venueFlag(annotateVenue))
		if err != nil {
			return nil, err
		}
		return &fleet{procs: []*proc{p}}, ready(ctx, setup.client, p.base, []string{annotateVenue})
	})
	if err != nil {
		return err
	}
	defer f.stop()
	base := f.procs[0].base

	pool, err := planTrajectories(r.w.space, annotatePool, annotateMinN, annotateMaxN, r.seed)
	if err != nil {
		return err
	}
	// The oracle's answers, computed before the load so they cost the
	// servers nothing: c2mn.Load(space, model).Annotate per trajectory,
	// on one worker per client.
	bodies := make([][]byte, len(pool))
	want := make([]struct{ regions, events string }, len(pool))
	errs := make([]error, annotateClients)
	var prep sync.WaitGroup
	for c := 0; c < annotateClients; c++ {
		prep.Add(1)
		go func() {
			defer prep.Done()
			for i := c; i < len(pool); i += annotateClients {
				bodies[i] = sequenceBody(pool[i].ObjectID, pool[i].Records)
				labels, _, err := r.w.ann.Annotate(&pool[i])
				if err != nil {
					errs[c] = err
					return
				}
				events := make([]string, len(labels.Events))
				for j, e := range labels.Events {
					events[j] = e.String()
				}
				want[i].regions, want[i].events = canonical(labels.Regions), canonical(events)
			}
		}()
	}
	prep.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	type sample struct {
		traj int
		id   string
	}
	var (
		mu       sync.Mutex
		lat      series
		perK     series // latency per 1000 records
		records  int
		requests []sample
	)
	// Warm-up: the server's pooled inference state and the CPUs settle
	// before the clock starts; these requests are neither timed nor
	// counted.
	warm := newLane(newAccounting(), newTracer(false))
	for i, t0 := 0, time.Now(); time.Since(t0) < annotateWarmup; i++ {
		if rep := warm.do(ctx, "annotate", http.MethodPost, base+"/v1/venues/"+annotateVenue+"/annotate", bodies[i%len(bodies)], nil); !rep.ok() {
			warm.close()
			return fmt.Errorf("warm-up annotate: status %d, %v", rep.status, rep.err)
		}
	}
	warm.close()
	m, err := startMeter(f)
	if err != nil {
		return err
	}
	start := time.Now()
	end := start.Add(time.Duration(r.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < annotateClients; c++ {
		l := newLane(r.acct, r.tr)
		defer l.close()
		// Each client walks its own seeded, length-stratified order of
		// the pool, so every stretch of the run asks for close to the
		// same length mix, and leaving out the requests sent while time
		// was stolen leaves the mix as it was.
		order := stratifiedOrder(rand.New(rand.NewSource(r.seed*31+int64(c))), len(pool), annotateStrata)
		wg.Add(1)
		go func() {
			defer wg.Done()
			url := base + "/v1/venues/" + annotateVenue + "/annotate"
			for j := 0; time.Now().Before(end) && ctx.Err() == nil; j++ {
				i := order[j%len(order)]
				sent := time.Now()
				rep := l.do(ctx, "annotate", http.MethodPost, url, bodies[i], nil)
				var got struct {
					Regions json.RawMessage `json:"regions"`
					Events  json.RawMessage `json:"events"`
				}
				ok := rep.ok() && json.Unmarshal(rep.body, &got) == nil
				correct := ok && compact(got.Regions) == want[i].regions && compact(got.Events) == want[i].events
				l.acct.record("annotate", rep.status, correct, false)
				mu.Lock()
				if ok && !correct {
					r.res.problem("annotate of trajectory %d (%d records): labels differ from c2mn.Load(space, model).Annotate", i, pool[i].Len())
				}
				if correct {
					n := pool[i].Len()
					lat.add(sent, rep.ms)
					perK.add(sent, rep.ms*1000/float64(n))
					records += n
					requests = append(requests, sample{i, rep.id})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu, err := m.stop()
	if err != nil {
		return err
	}
	rss, err := f.peakRSSMB()
	if err != nil {
		return err
	}
	attempted, _ := r.acct.totals()
	r.res.gate("annotated", records > 0)
	r.setE2E(start, elapsed, m, lat, perK, 1000*cpu/float64(max(attempted, 1)), float64(records)/elapsed.Seconds(), rss)
	r.latencyNamed("annotate", lat.ms)
	r.res.Named["annotate_records_per_s"] = float64(records) / elapsed.Seconds()

	if !r.tr.on {
		return nil
	}
	r.primary = "annotate"
	rp, err := newReplayer(r)
	if err != nil {
		return err
	}
	r.rp = rp
	for _, s := range requests {
		labels, _ := rp.annotate(s.id, &pool[s.traj])
		if canonical(labels.Regions) != want[s.traj].regions {
			r.res.problem("replayed labels of trajectory %d differ from the server's", s.traj)
		}
	}
	return nil
}

// stratifiedOrder returns a permutation of 0..n-1 (n a multiple of
// strata) for a pool sorted by length: it cuts the pool into strata
// bands of consecutive indices and emits rounds of one index from each
// band, bands and members in random order.
func stratifiedOrder(rng *rand.Rand, n, strata int) []int {
	size := n / strata
	bands := make([][]int, strata)
	for b := range bands {
		bands[b] = rng.Perm(size)
	}
	out := make([]int, 0, n)
	for round := 0; round < size; round++ {
		for _, b := range rng.Perm(strata) {
			out = append(out, b*size+bands[b][round])
		}
	}
	return out
}
