package main

// Spans recorded by the benchmark itself: client spans around each
// HTTP request (the X-Request-ID the request carries is the span id)
// and, after the HTTP phase, replay spans around each layer call made
// on the same inputs, parented to the request whose input they replay.
// Spans stay in memory and are written once when the run ends.

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	// Work is the number of units the span processed (records for
	// layer calls, 1 otherwise).
	Work int `json:"work,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans when on; every method is a no-op when off, so
// the untraced runs pay one branch per request.
type tracer struct {
	on     bool
	origin time.Time
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// id mints a span id unique within the run.
func (t *tracer) id(prefix string) string {
	return prefix + "-" + strconv.FormatInt(t.next.Add(1), 10)
}

func (t *tracer) add(s span) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn as span name under parent and returns the span's id.
func (t *tracer) timed(parent, name string, work int, fn func()) string {
	id := t.id(name)
	start := t.now()
	fn()
	t.add(span{ID: id, Parent: parent, Name: name, Start: start, End: t.now(), Work: work})
	return id
}

// selfTimes returns each span's self time: its duration minus the
// length of the union of its children's intervals, floored at zero.
// Replay children run after their parent request, not inside it, so
// the union is taken over the children's own intervals wherever they
// lie; children that overlap each other count once.
func selfTimes(spans []span) map[string]int64 {
	kids := map[string][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = max(0, s.dur()-unionLen(kids[s.ID]))
	}
	return out
}

// unionLen is the total length covered by the spans' intervals.
func unionLen(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.Start, s.End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total := int64(0)
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		cur[1] = max(cur[1], x[1])
	}
	return total + cur[1] - cur[0]
}

// layerTotals aggregates self time and work by span name.
type layerTotal struct {
	Spans  int   `json:"spans"`
	Work   int   `json:"work"`
	SelfNs int64 `json:"self_ns"`
}

func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := map[string]layerTotal{}
	for _, s := range spans {
		lt := out[s.Name]
		lt.Spans++
		lt.Work += s.Work
		lt.SelfNs += self[s.ID]
		out[s.Name] = lt
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
