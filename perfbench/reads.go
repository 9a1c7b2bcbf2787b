package main

// Dashboard reads: the GET top-k routes and paginated POST /v1/query,
// sent with If-None-Match whenever an earlier answer minted an ETag,
// and their in-process replay against query.Store.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"time"

	"c2mn"
	"c2mn/internal/query"
)

// readOp is one planned read.
type readOp struct {
	kind     c2mn.QueryKind
	venue    string // "" for fleet scope
	win      c2mn.Window
	k        int
	pageSize int // > 0: POST /v1/query, following next_cursor to the end
}

func (q readOp) query() c2mn.Query {
	w := q.win
	out := c2mn.Query{Kind: q.kind, Scope: c2mn.ScopeFleet, Window: &w, K: q.k}
	if q.venue != "" {
		out.Scope, out.Venues = c2mn.ScopeVenue, []string{q.venue}
	}
	return out
}

// getURL is the GET route of a read: the venue route, or the fleet
// route with scope=fleet.
func (q readOp) getURL(base string) string {
	v := url.Values{}
	v.Set("k", fmt.Sprint(q.k))
	v.Set("start", fmt.Sprint(q.win.Start))
	v.Set("end", fmt.Sprint(q.win.End))
	if q.venue == "" {
		v.Set("scope", "fleet")
		return fmt.Sprintf("%s/v1/query/%s?%s", base, q.kind, v.Encode())
	}
	return fmt.Sprintf("%s/v1/venues/%s/query/%s?%s", base, url.PathEscape(q.venue), q.kind, v.Encode())
}

// windowPool draws n windows inside [lo, hi): the bounded set a
// dashboard keeps re-asking. Window i spans a fixed share of the range
// (20% to 80%, evenly spaced), so every seed asks for the same amount
// of history; the seed places the windows.
func windowPool(rng *rand.Rand, n int, lo, hi float64) []c2mn.Window {
	out := make([]c2mn.Window, n)
	for i := range out {
		out[i] = randomWindow(rng, lo, hi, windowShare(i, n))
	}
	return out
}

// windowShare is the share of the range window i of n spans.
func windowShare(i, n int) float64 { return 0.2 + 0.6*(float64(i)+0.5)/float64(n) }

// randomWindow places a window spanning share of [lo, hi) at random.
func randomWindow(rng *rand.Rand, lo, hi, share float64) c2mn.Window {
	span := (hi - lo) * share
	start := lo + rng.Float64()*(hi-lo-span)
	return c2mn.Window{Start: start, End: start + span}
}

// reader sends reads on one lane, keeping the freshest ETag per
// request so repeats revalidate.
type reader struct {
	l     *lane
	base  string
	etags map[string]string
	lat   latencies
	// ids collects each read's request ids (one per page), by read.
	ids [][]string
}

func newReader(l *lane, base string) *reader {
	return &reader{l: l, base: base, etags: map[string]string{}}
}

// send issues read q whose first request was due at due. Every page
// is one timed query sample: the first from its due time, later pages
// from when the previous page's answer arrived.
func (rd *reader) send(ctx context.Context, q readOp, due time.Time) {
	var ids []string
	defer func() { rd.ids = append(rd.ids, ids) }()
	if q.pageSize == 0 {
		key := q.getURL(rd.base)
		sent := time.Now()
		rep := rd.conditional(ctx, http.MethodGet, key, key, nil)
		ids = append(ids, rep.id)
		rd.book(rep, due, sent)
		return
	}
	body, _ := json.Marshal(struct {
		c2mn.Query
		PageSize int `json:"page_size"`
	}{q.query(), q.pageSize})
	for page := 0; page < 64; page++ {
		key := rd.base + "/v1/query " + string(body)
		sent := time.Now()
		rep := rd.conditional(ctx, http.MethodPost, rd.base+"/v1/query", key, body)
		ids = append(ids, rep.id)
		rd.book(rep, due, sent)
		if !rep.ok() || rep.status == http.StatusNotModified {
			return
		}
		var resp struct {
			NextCursor string `json:"next_cursor"`
		}
		if json.Unmarshal(rep.body, &resp) != nil || resp.NextCursor == "" {
			return
		}
		body, _ = json.Marshal(map[string]any{"cursor": resp.NextCursor})
		due = time.Now()
	}
}

func (rd *reader) conditional(ctx context.Context, method, url, key string, body []byte) reply {
	var hdr map[string]string
	if etag := rd.etags[key]; etag != "" {
		hdr = map[string]string{"If-None-Match": etag}
	}
	rep := rd.l.do(ctx, "query", method, url, body, hdr)
	if etag := rep.header.Get("ETag"); rep.err == nil && etag != "" {
		rd.etags[key] = etag
	}
	rep.conditional = hdr != nil
	return rep
}

func (rd *reader) book(rep reply, due, sent time.Time) {
	rd.l.acct.record("query", rep.status, rep.ok(), rep.conditional)
	rd.lat.add(due, sent, rep)
}

// replayRead answers q in-process over stores, as one venue's engine
// (a single store) or the registry's fleet fan-out (every store
// untruncated, then merged) would, under parent.
func replayRead(r *run, parent string, stores map[string]*query.Store, venues []string, q readOp) ([]query.RegionCount, []query.PairCount) {
	regions := r.w.space.Regions()
	scan := venues
	if q.venue != "" {
		scan = []string{q.venue}
	}
	k := q.k
	if len(scan) > 1 {
		k = query.AllCounts
	}
	var rcs [][]query.RegionCount
	var pcs [][]query.PairCount
	for _, v := range scan {
		r.tr.timed(parent, "query.topk", 1, func() {
			if q.kind == c2mn.QueryPopularRegions {
				rc, _ := stores[v].TopKPopularRegionsGen(regions, q.win, k)
				rcs = append(rcs, rc)
			} else {
				pc, _ := stores[v].TopKFrequentPairsGen(regions, q.win, k)
				pcs = append(pcs, pc)
			}
		})
	}
	if len(scan) == 1 {
		if rcs != nil {
			return rcs[0], nil
		}
		return nil, pcs[0]
	}
	var rc []query.RegionCount
	var pc []query.PairCount
	r.tr.timed(parent, "query.merge", 1, func() {
		if q.kind == c2mn.QueryPopularRegions {
			rc = query.TruncateRegionCounts(query.MergeRegionCounts(rcs...), q.k)
		} else {
			pc = query.TruncatePairCounts(query.MergePairCounts(pcs...), q.k)
		}
	})
	return rc, pc
}
