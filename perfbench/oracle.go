package main

// The correctness side: an in-process reference that receives the
// identical inputs the servers received, the comparison of final
// answers against it, and the /v1/watch subscriber whose events the
// push-lag metric is measured from.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"c2mn"
	"c2mn/internal/notify"
)

// reference is a VenueRegistry configured like the servers, built
// from the same space and model files.
type reference struct {
	reg *c2mn.VenueRegistry
}

func newReference(w *world, venues []string, snapshots map[string][]byte) (*reference, error) {
	reg, err := c2mn.NewVenueRegistry(c2mn.WithVenueDefaults(c2mn.WithPreprocess(eta, psi)))
	if err != nil {
		return nil, err
	}
	for _, v := range venues {
		e, err := reg.Register(v, w.ann)
		if err != nil {
			return nil, err
		}
		if snap := snapshots[v]; snap != nil {
			if err := e.RestoreSnapshot(bytes.NewReader(snap)); err != nil {
				return nil, fmt.Errorf("reference restore of %s: %w", v, err)
			}
		}
	}
	return &reference{reg: reg}, nil
}

// feedAll replays batches in order and checks each completion count
// against what the server acknowledged (-1: not acknowledged).
func (ref *reference) feedAll(r *run, batches []feedBatch, acked []int) error {
	for i, b := range batches {
		n, err := ref.reg.FeedAll(b.venue, b.object, b.records)
		if err != nil {
			return fmt.Errorf("reference feed %d: %w", i, err)
		}
		if acked[i] >= 0 && acked[i] != n {
			r.res.problem("feed %d (%s/%s): server completed %d sequences, reference %d", i, b.venue, b.object, acked[i], n)
			r.acct.fail("feed")
		}
	}
	return nil
}

// queryWire is the part of a POST /v1/query answer the oracle compares.
type queryWire struct {
	Scanned []string        `json:"scanned"`
	Regions json.RawMessage `json:"regions"`
	Pairs   json.RawMessage `json:"pairs"`
}

func canonical(v any) string {
	b, _ := json.Marshal(v) // plain slices of structs always marshal
	if string(b) == "null" {
		return ""
	}
	return string(b)
}

func compact(raw json.RawMessage) string {
	if len(raw) == 0 {
		return ""
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	return buf.String()
}

// checkFinal asks base for each query's answer and compares it byte
// for byte (regions, pairs, scanned venues) with the reference.
func (ref *reference) checkFinal(ctx context.Context, r *run, l *lane, base string, qs []c2mn.Query) {
	for _, q := range qs {
		body, _ := json.Marshal(q)
		rep := l.do(ctx, "check", http.MethodPost, base+"/v1/query", body, nil)
		want, err := ref.reg.Query(ctx, q)
		if err != nil {
			r.res.problem("reference query %s: %v", body, err)
			continue
		}
		var got queryWire
		if !rep.ok() || json.Unmarshal(rep.body, &got) != nil {
			r.acct.record("check", rep.status, false, false)
			r.res.problem("final query %s: status %d err %v", body, rep.status, rep.err)
			continue
		}
		ok := compact(got.Regions) == canonical(want.Regions) &&
			compact(got.Pairs) == canonical(want.Pairs) &&
			canonical(got.Scanned) == canonical(want.Scanned)
		r.acct.record("check", rep.status, ok, false)
		if !ok {
			r.res.problem("final answer differs for %s:\n server    %s %s\n reference %s %s",
				body, compact(got.Regions), compact(got.Pairs), canonical(want.Regions), canonical(want.Pairs))
		}
	}
}

// finalQueries is the oracle's question set: both kinds, every venue
// alone and the fleet, over all of time and over one bounded window.
func finalQueries(venues []string, k int, win c2mn.Window) []c2mn.Query {
	var qs []c2mn.Query
	for _, kind := range []c2mn.QueryKind{c2mn.QueryPopularRegions, c2mn.QueryFrequentPairs} {
		for _, w := range []*c2mn.Window{nil, &win} {
			qs = append(qs, c2mn.Query{Kind: kind, Scope: c2mn.ScopeFleet, Window: w, K: k})
			for _, v := range venues {
				qs = append(qs, c2mn.Query{Kind: kind, Scope: c2mn.ScopeVenue, Venues: []string{v}, Window: w, K: k})
			}
		}
	}
	return qs
}

// watchEvent is one data-bearing /v1/watch event as received.
type watchEvent struct {
	at   time.Time
	name string
	gens map[string]uint64
}

// watcher holds one /v1/watch subscription open and logs its events.
type watcher struct {
	mu     sync.Mutex
	events []watchEvent
	bad    int // malformed ids
	err    error
	cancel context.CancelFunc
	done   chan struct{}
	id     string // X-Request-ID of the subscription
}

func startWatcher(ctx context.Context, r *run, url string) (*watcher, error) {
	ctx, cancel := context.WithCancel(ctx)
	w := &watcher{cancel: cancel, done: make(chan struct{}), id: r.tr.id("watch")}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("X-Request-ID", w.id)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	start := r.tr.now()
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		r.acct.record("watch", 0, false, false)
		return nil, fmt.Errorf("subscribing to %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		r.acct.record("watch", resp.StatusCode, false, false)
		return nil, fmt.Errorf("subscribing to %s: status %d", url, resp.StatusCode)
	}
	first := make(chan struct{})
	go func() {
		defer close(w.done)
		defer resp.Body.Close()
		defer r.tr.add(span{ID: w.id, Name: "http.watch", Start: start, End: r.tr.now(), Work: 1})
		er := notify.NewEventReader(resp.Body)
		signalled := false
		for {
			ev, err := er.Next()
			if err != nil {
				if ctx.Err() == nil {
					w.mu.Lock()
					w.err = err
					w.mu.Unlock()
				}
				if !signalled {
					close(first)
				}
				return
			}
			switch ev.Name {
			case "snapshot", "delta", "resync":
				gens, ok := notify.ParseEventID(ev.ID)
				w.mu.Lock()
				if ok {
					w.events = append(w.events, watchEvent{at: time.Now(), name: ev.Name, gens: gens})
				} else {
					w.bad++
				}
				w.mu.Unlock()
				if !signalled {
					close(first)
					signalled = true
				}
			case "goodbye":
				w.mu.Lock()
				w.err = fmt.Errorf("watch stream said goodbye: %s", ev.Data)
				w.mu.Unlock()
			}
		}
	}()
	select {
	case <-first:
	case <-time.After(10 * time.Second):
		w.stop()
		return nil, fmt.Errorf("no snapshot event on %s within 10s", url)
	}
	return w, nil
}

// stop ends the subscription and waits for its reader to exit.
func (w *watcher) stop() {
	w.cancel()
	<-w.done
}

func (w *watcher) log() []watchEvent {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]watchEvent(nil), w.events...)
}

// covered reports whether an event has reached gen for every venue in
// want.
func (w *watcher) covered(want map[string]uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.events) == 0 {
		return false
	}
	last := w.events[len(w.events)-1].gens
	for v, g := range want {
		if last[v] < g {
			return false
		}
	}
	return true
}
