package main

// The traced run's second half: the HTTP phase's inputs replayed
// in-process through the layers' public functions, one span per call,
// each parented to the request whose input it replays.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"c2mn/internal/core"
	"c2mn/internal/features"
	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// replayer holds the reusable inference state of the replay, the same
// (SeqContext, Workspace) pair msserve pools per worker.
type replayer struct {
	r      *run
	cache  *indoor.SpaceCache
	ctx    *features.SeqContext
	ws     *core.Workspace
	cands  []indoor.RegionID
	R      []indoor.RegionID
	E      []seq.Event
	scores []float64

	records, candidates int
}

func newReplayer(r *run) (*replayer, error) {
	cache := r.w.ex.Cache()
	if cache == nil || cache.V != r.w.model.Params.V {
		return nil, errors.New("replay: the extractor has no geometry cache for the model's radius")
	}
	return &replayer{r: r, cache: cache, ctx: &features.SeqContext{Ex: r.w.ex}, ws: core.NewWorkspace()}, nil
}

// annotate replays one sequence's inference under parent, as
// Annotator.annotateWith runs it: SeqContext.Reset, Workspace.Annotate
// and seq.Merge. Two probes time parts of that work on their own:
// indoor.lookup, the SpaceCache lookups Reset makes (a child of the
// context span), and one pass of each scoring kernel over every record
// at the initial labelling (children of the core span).
func (rp *replayer) annotate(parent string, p *seq.PSequence) (seq.Labels, seq.MSSequence) {
	tr := rp.r.tr
	n := p.Len()
	ctxID, coreID := tr.id("features.context"), tr.id("core.annotate")

	start := tr.now()
	for _, rec := range p.Records {
		rp.cands = rp.cache.CandidateRegions(rec.Loc, rp.cands[:0])
		rp.candidates += len(rp.cands)
	}
	rp.records += n
	tr.add(span{ID: tr.id("indoor.lookup"), Parent: ctxID, Name: "indoor.lookup", Start: start, End: tr.now(), Work: n})

	start = tr.now()
	rp.ctx.Reset(p, nil)
	tr.add(span{ID: ctxID, Parent: parent, Name: "features.context", Start: start, End: tr.now(), Work: n})

	rp.R = grow(rp.R, n)
	rp.E = grow(rp.E, n)
	core.InitRegionsInto(rp.ctx, rp.R)
	core.InitEventsInto(rp.ctx, rp.E)
	w := rp.r.w.model.Weights
	tr.timed(coreID, "features.region_scores", n, func() {
		for i := 0; i < n; i++ {
			k := len(rp.ctx.Candidates[i])
			rp.scores = grow(rp.scores, max(k, seq.NumEvents))
			rp.ctx.RegionCandScores(w, rp.R, rp.E, i, rp.scores[:k])
		}
	})
	tr.timed(coreID, "features.event_scores", n, func() {
		for i := 0; i < n; i++ {
			rp.ctx.EventCandScores(w, rp.R, rp.E, i, rp.scores[:seq.NumEvents])
		}
	})

	start = tr.now()
	labels := rp.ws.Annotate(rp.r.w.model, rp.ctx, core.InferOptions{})
	tr.add(span{ID: coreID, Parent: parent, Name: "core.annotate", Start: start, End: tr.now(), Work: n})

	var ms seq.MSSequence
	tr.timed(parent, "seq.merge", n, func() { ms = seq.Merge(p, labels) })
	return labels, ms
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// layerMetrics derives the per-layer metrics every workload reports
// from the spans, and files the breakdown of the primary class's
// median latency into res.Layers.
func (r *run) layerMetrics(primary string, rp *replayer) map[string]metric {
	spans := r.tr.all()
	self := selfTimes(spans)
	totals := layerTotals(spans)
	kids := map[string][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	// below sums the self time under a span, and files it by layer.
	byLayer := map[string]int64{}
	var below func(id string) int64
	below = func(id string) int64 {
		sum := int64(0)
		for _, k := range kids[id] {
			byLayer[k.Name] += self[k.ID]
			sum += self[k.ID] + below(k.ID)
		}
		return sum
	}
	// Per request of the primary class: its latency and the in-process
	// time of the replayed layer calls made on its input.
	var lat, replayed []float64
	for _, s := range spans {
		if s.Name == "http."+primary {
			lat = append(lat, float64(s.dur())/1e6)
			replayed = append(replayed, float64(below(s.ID))/1e6)
		}
	}
	p50, m := median(lat), median(replayed)

	// Breakdown of p50: the replayed median split across the layers
	// under the primary requests in proportion to their self time, plus
	// the HTTP residual.
	var layerSum int64
	for _, ns := range byLayer {
		layerSum += ns
	}
	breakdown := map[string]float64{"http.residual": p50 - m}
	for name, ns := range byLayer {
		if layerSum > 0 {
			breakdown[name] = m * float64(ns) / float64(layerSum)
		}
	}
	r.res.Layers["breakdown_ms"] = breakdown
	r.res.Layers["breakdown_of"] = map[string]any{"class": primary, "p50_ms": p50, "requests": len(lat)}
	r.res.Layers["totals"] = totals

	per := func(name string, scale float64, byWork bool) float64 {
		lt := totals[name]
		d := lt.Spans
		if byWork {
			d = lt.Work
		}
		if d == 0 {
			return math.NaN()
		}
		return float64(lt.SelfNs) / float64(d) / scale
	}
	out := map[string]metric{
		"http.residual_ms":             {p50 - m, "ms"},
		"indoor.lookup_ns":             {per("indoor.lookup", 1, true), "ns"},
		"indoor.candidates_per_record": {float64(rp.candidates) / float64(max(rp.records, 1)), "count"},
		"features.context_ms":          {per("features.context", 1e6, false), "ms"},
		"features.region_scores_ns":    {per("features.region_scores", 1, true), "ns"},
		"features.event_scores_ns":     {per("features.event_scores", 1, true), "ns"},
		"core.annotate_ms":             {per("core.annotate", 1e6, false), "ms"},
		"core.us_per_record":           {per("core.annotate", 1e3, true), "us"},
		"seq.merge_us":                 {per("seq.merge", 1e3, false), "us"},
	}
	for k, v := range out {
		r.res.Named[k] = v.Value
		if math.IsNaN(v.Value) {
			r.res.problem("per-layer metric %s has no samples", k)
		}
	}
	return out
}

// tracingOverhead compares the traced run's end-to-end medians with
// those of the most recent untraced run in the checkout of the same
// workload and seed on the same sources (env.source_sha256); without
// one it records that there is none.
func (r *run) tracingOverhead(resultsDir string, traced map[string]metric) {
	paths, _ := filepath.Glob(filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace0-*.json", r.res.Workload, r.seed)))
	var untraced result
	latest, newest := "", time.Time{}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil || !fi.ModTime().After(newest) {
			continue
		}
		b, err := os.ReadFile(p)
		var u result
		if err != nil || json.Unmarshal(b, &u) != nil ||
			u.Env["source_sha256"] == nil || u.Env["source_sha256"] != r.res.Env["source_sha256"] {
			continue
		}
		untraced, latest, newest = u, p, fi.ModTime()
	}
	if latest == "" {
		r.res.Layers["tracing_overhead_ms"] = "no untraced run of this workload and seed on these sources in the checkout"
		return
	}
	diff := map[string]float64{}
	for _, k := range []string{"p50_ms", "p90_ms", "aux_p50_ms"} {
		if u, ok := untraced.Metrics[k]; ok {
			diff[k] = traced[k].Value - u.Value
		}
	}
	r.res.Layers["tracing_overhead_ms"] = diff
	r.res.Layers["tracing_overhead_base"] = filepath.Base(latest)
}
