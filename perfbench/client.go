package main

// The load generator's HTTP side. A lane is one client connection: its
// requests run one at a time, so the generator's concurrent
// connections equal its lanes plus the watch stream.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

const adminToken = "perfbench-admin"

type lane struct {
	client *http.Client
	acct   *accounting
	tr     *tracer
}

func newLane(acct *accounting, tr *tracer) *lane {
	return &lane{
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		acct: acct,
		tr:   tr,
	}
}

func (l *lane) close() { l.client.CloseIdleConnections() }

// reply is one completed HTTP exchange.
type reply struct {
	status int
	body   []byte
	header http.Header
	id     string  // X-Request-ID, the client span's id
	ms     float64 // send to last body byte
	err    error
	// conditional is set when the request carried If-None-Match.
	conditional bool
}

func (r reply) ok() bool {
	return r.err == nil && (r.status == http.StatusNotModified || r.status/100 == 2)
}

// do sends one request. class names the client span; hdr adds headers
// (If-None-Match, Authorization).
func (l *lane) do(ctx context.Context, class, method, url string, body []byte, hdr map[string]string) reply {
	id := l.tr.id(class)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return reply{err: err, id: id}
	}
	req.Header.Set("X-Request-ID", id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	startNs := l.tr.now()
	start := time.Now()
	resp, err := l.client.Do(req)
	r := reply{id: id}
	if err != nil {
		r.err = err
	} else {
		r.status, r.header = resp.StatusCode, resp.Header
		r.body, r.err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.ms = float64(time.Since(start)) / 1e6
	l.tr.add(span{ID: id, Name: "http." + class, Start: startNs, End: l.tr.now(), Work: 1})
	return r
}

// admin sends an admin-plane request carrying the token; any failure
// is returned as an error.
func (l *lane) admin(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	r := l.do(ctx, "admin", method, url, body, map[string]string{"Authorization": "Bearer " + adminToken})
	l.acct.record("admin", r.status, r.err == nil && r.status/100 == 2, false)
	if r.err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, r.err)
	}
	if r.status/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, r.status, bytes.TrimSpace(r.body))
	}
	return r.body, nil
}

// schedule paces an open loop: request i is due at start + i/rate.
// wait sleeps until the next request is due and returns its due time
// and how late the generator is sending it.
type schedule struct {
	start    time.Time
	interval time.Duration
	i        int
	shift    time.Duration // pauses excluded from the clock (see pause)
	lateness []float64     // ms
}

func newSchedule(start time.Time, rate float64) *schedule {
	return &schedule{start: start, interval: time.Duration(float64(time.Second) / rate)}
}

func (s *schedule) wait(ctx context.Context) (time.Time, bool) {
	due := s.start.Add(s.shift + time.Duration(s.i)*s.interval)
	s.i++
	if d := time.Until(due); d > 0 {
		select {
		case <-ctx.Done():
			return due, false
		case <-time.After(d):
		}
	}
	s.lateness = append(s.lateness, float64(time.Since(due))/1e6)
	return due, ctx.Err() == nil
}

// pause moves every later due time back by d: work the lane did
// outside the schedule (a migration) does not make the requests behind
// it late.
func (s *schedule) pause(d time.Duration) { s.shift += d }

// latencies holds one request class's samples twice: from when each
// request was due (open loop: includes waiting behind earlier requests
// and generator lateness) and its own service time, from send to the
// last byte of the answer.
type latencies struct {
	due     []float64
	service series
}

// add books a request that was due at due and sent at sent.
func (l *latencies) add(due, sent time.Time, rep reply) {
	l.due = append(l.due, sinceMs(due))
	l.service.add(sent, rep.ms)
}

func sinceMs(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
