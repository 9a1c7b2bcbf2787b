package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of
// values: the smallest sample with at least p·n samples at or below
// it. It sorts a copy and returns NaN for no samples.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(values []float64) float64 { return percentile(values, 0.5) }

// series is one latency class of a run: each sample in ms and when its
// request was sent.
type series struct {
	ms []float64
	at []time.Time
}

func (s *series) add(at time.Time, ms float64) {
	s.ms = append(s.ms, ms)
	s.at = append(s.at, at)
}

func (s series) raw(start time.Time) rawSeries {
	at := make([]float64, len(s.at))
	for i, t := range s.at {
		at[i] = t.Sub(start).Seconds()
	}
	return rawSeries{MS: s.ms, AtS: at}
}

// A sample counts when the sampler window it was sent in lost at most
// stealFloor of the machine's CPU time, or no more than the
// stealKeep-quantile of the windows, so the least stolen 30% of the
// phase always counts.
const (
	stealFloor = 0.02
	stealKeep  = 0.3
)

// steady returns the q-quantile of the samples that count under w.
// Stolen time only slows a run, so bursts of it move the result little;
// without any it is the quantile of every sample.
func (s series) steady(q float64, w stealWindows) float64 {
	if len(w.share) == 0 {
		return percentile(s.ms, q)
	}
	limit := max(percentile(w.share, stealKeep), stealFloor)
	var kept []float64
	for i, at := range s.at {
		if w.of(at) <= limit {
			kept = append(kept, s.ms[i])
		}
	}
	return percentile(kept, q)
}

// opClass accounts one operation class (feed, annotate, query, watch,
// migrate, admin, check): what was attempted and how it ended.
type opClass struct {
	Attempted   int `json:"attempted"`
	Succeeded   int `json:"succeeded"`
	Failed      int `json:"failed"`
	NotModified int `json:"not_modified"`
	Throttled   int `json:"throttled"`
	// Conditional counts requests that carried If-None-Match.
	Conditional int `json:"conditional"`
}

// accounting is the run's operation ledger, safe for concurrent use.
type accounting struct {
	mu      sync.Mutex
	classes map[string]*opClass
}

func newAccounting() *accounting { return &accounting{classes: map[string]*opClass{}} }

func (a *accounting) class(name string) *opClass {
	c := a.classes[name]
	if c == nil {
		c = &opClass{}
		a.classes[name] = c
	}
	return c
}

// record books one attempt. ok is false for a transport error, a
// status other than 2xx or 304, or a wrong answer; a 429 also fails.
func (a *accounting) record(name string, status int, ok, conditional bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.class(name)
	c.Attempted++
	if conditional {
		c.Conditional++
	}
	switch status {
	case 304:
		c.NotModified++
	case 429:
		c.Throttled++
		ok = false
	}
	if ok {
		c.Succeeded++
	} else {
		c.Failed++
	}
}

// fail books a failure discovered after the request completed, such as
// a wrong answer found by the oracle.
func (a *accounting) fail(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.class(name)
	c.Succeeded--
	c.Failed++
}

func (a *accounting) totals() (attempted, failed int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range a.classes {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

func (a *accounting) snapshot() map[string]opClass {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]opClass, len(a.classes))
	for k, c := range a.classes {
		out[k] = *c
	}
	return out
}
