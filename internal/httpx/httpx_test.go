package httpx

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"c2mn"
	"c2mn/internal/notify"
)

// TestErrorCodeTable pins every code either serving tier emits: the
// sentinel codes win over the status, and the status fallbacks cover
// everything else.
func TestErrorCodeTable(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("context: %w", err) }
	for _, c := range []struct {
		status int
		err    error
		want   string
	}{
		{http.StatusServiceUnavailable, wrap(c2mn.ErrNoBackend), "no_backend"},
		{http.StatusConflict, wrap(c2mn.ErrMigrationConflict), "migration_conflict"},
		{http.StatusNotFound, wrap(c2mn.ErrUnknownVenue), "unknown_venue"},
		{http.StatusBadRequest, wrap(c2mn.ErrInvalidQuery), "invalid_query"},
		{http.StatusTooManyRequests, wrap(c2mn.ErrBacklog), "backlog"},
		{http.StatusServiceUnavailable, wrap(c2mn.ErrCanceled), "canceled"},
		{http.StatusConflict, wrap(c2mn.ErrTooManyVenues), "too_many_venues"},
		{http.StatusBadRequest, wrap(c2mn.ErrEmptySequence), "empty_sequence"},
		{http.StatusUnprocessableEntity, wrap(c2mn.ErrModelVersion), "model_version"},
		{http.StatusUnprocessableEntity, wrap(c2mn.ErrSnapshotVersion), "snapshot_version"},
		{http.StatusConflict, wrap(c2mn.ErrSnapshotMismatch), "snapshot_mismatch"},
		{http.StatusConflict, wrap(c2mn.ErrSnapshotConflict), "snapshot_conflict"},
		{http.StatusUnprocessableEntity, wrap(c2mn.ErrSnapshotCorrupt), "snapshot_corrupt"},
		{http.StatusServiceUnavailable, wrap(ErrVenueDraining), "venue_draining"},
		{http.StatusTemporaryRedirect, wrap(ErrVenueDraining), "venue_draining"},
		{http.StatusConflict, wrap(c2mn.ErrRetrainDisabled), "retrain_disabled"},
		{http.StatusConflict, wrap(c2mn.ErrRetrainBusy), "retrain_busy"},
		{http.StatusConflict, wrap(c2mn.ErrRetrainConflict), "retrain_conflict"},
		{http.StatusConflict, wrap(c2mn.ErrRetrainSamples), "retrain_samples"},
		{http.StatusBadRequest, errors.New("x"), "invalid_argument"},
		{http.StatusUnauthorized, errors.New("x"), "unauthorized"},
		{http.StatusNotFound, errors.New("x"), "not_found"},
		{http.StatusMethodNotAllowed, errors.New("x"), "method_not_allowed"},
		{http.StatusConflict, errors.New("x"), "conflict"},
		{http.StatusRequestEntityTooLarge, errors.New("x"), "body_too_large"},
		{http.StatusTooManyRequests, errors.New("x"), "backlog"},
		{http.StatusBadGateway, errors.New("x"), "backend_unreachable"},
		{http.StatusServiceUnavailable, errors.New("x"), "unavailable"},
		{http.StatusInternalServerError, errors.New("x"), "internal"},
		{http.StatusGatewayTimeout, errors.New("x"), "internal"},
		{http.StatusUnprocessableEntity, errors.New("x"), "unprocessable"},
	} {
		if got := ErrorCode(c.status, c.err); got != c.want {
			t.Errorf("ErrorCode(%d, %v) = %q, want %q", c.status, c.err, got, c.want)
		}
	}
}

// TestWriteErrorBytes pins the envelope's exact bytes, alone and next
// to a partial-success payload.
func TestWriteErrorBytes(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/v1/x", nil)
	r.Header.Set(RequestIDHeader, "rid")
	rec := httptest.NewRecorder()
	WriteError(rec, r, http.StatusNotFound, fmt.Errorf("gone: %w", c2mn.ErrUnknownVenue))
	if want := `{"error":{"code":"unknown_venue","message":"gone: c2mn: unknown venue","request_id":"rid"}}` + "\n"; rec.Body.String() != want {
		t.Fatalf("WriteError body %q, want %q", rec.Body.String(), want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	rec = httptest.NewRecorder()
	WriteErrorWith(rec, r, http.StatusTooManyRequests, c2mn.ErrBacklog, struct {
		Fed int `json:"fed"`
	}{3})
	if want := `{"error":{"code":"backlog","message":"c2mn: annotation backlog","request_id":"rid"},"fed":3}` + "\n"; rec.Body.String() != want {
		t.Fatalf("WriteErrorWith body %q, want %q", rec.Body.String(), want)
	}
}

func decodeEnvelope(t *testing.T, resp *http.Response) WireError {
	t.Helper()
	defer resp.Body.Close()
	var body struct {
		Error WireError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	return body.Error
}

// TestEnvelope404And405: the mux's plain-text errors become the typed
// envelope on any path, the 405 keeps its Allow header, and
// handler-written errors pass through untouched.
func TestEnvelope404And405(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/thing", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusNotFound, map[string]string{"own": "answer"})
	})
	srv := httptest.NewServer(RequestID(Envelope(mux)))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/thing")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/thing: %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Fatalf("405 Allow %q lost the method list", allow)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("405 Content-Type %q", ct)
	}
	we := decodeEnvelope(t, resp)
	if we.Code != "method_not_allowed" || !strings.Contains(we.Message, "allowed: ") || we.RequestID == "" {
		t.Fatalf("405 envelope %+v", we)
	}

	for _, path := range []string{"/v1/nope", "/nope"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, resp.StatusCode)
		}
		if resp.Header.Get("X-Content-Type-Options") != "" {
			t.Fatalf("GET %s kept the plain-text nosniff header", path)
		}
		if we := decodeEnvelope(t, resp); we.Code != "not_found" {
			t.Fatalf("GET %s code %q", path, we.Code)
		}
	}

	resp, err = http.Post(srv.URL+"/v1/thing", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var own map[string]string
	json.NewDecoder(resp.Body).Decode(&own)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || own["own"] != "answer" {
		t.Fatalf("handler-written 404 rewritten: %d %v", resp.StatusCode, own)
	}
}

// TestEnvelopeStreamsSSE: a /v1/watch-style stream flushes each frame
// through the wrapper chain (Unwrap) while the handler is still
// running.
func TestEnvelopeStreamsSSE(t *testing.T) {
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw, err := notify.NewSSEWriter(w, time.Second)
		if err != nil {
			WriteError(w, r, http.StatusInternalServerError, err)
			return
		}
		sw.Event("snapshot", "v:1", map[string]int{"n": 1})
		<-release
	})
	srv := httptest.NewServer(RequestID(Envelope(h)))
	defer srv.Close()
	defer close(release) // before Close, which waits for the handler

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/watch", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("stream Content-Type %q", ct)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatalf("reading the first frame before the handler returned: %v", err)
	}
	if line != "event: snapshot\n" {
		t.Fatalf("first frame line %q", line)
	}
}

// TestRequestIDEchoedOrMinted: an inbound X-Request-ID is echoed and
// visible to the handler; without one a fresh 16-hex-char ID is minted
// on both the request and the response.
func TestRequestIDEchoedOrMinted(t *testing.T) {
	var seen string
	h := RequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = r.Header.Get(RequestIDHeader)
	}))

	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, "/v1/x", nil)
	r.Header.Set(RequestIDHeader, "client-chose-this")
	h.ServeHTTP(rec, r)
	if got := rec.Header().Get(RequestIDHeader); got != "client-chose-this" || seen != got {
		t.Fatalf("echo: response %q, handler saw %q", got, seen)
	}

	ids := map[string]bool{}
	for i := 0; i < 2; i++ {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/x", nil))
		got := rec.Header().Get(RequestIDHeader)
		if len(got) != 16 || strings.Trim(got, "0123456789abcdef") != "" || seen != got {
			t.Fatalf("minted: response %q, handler saw %q", got, seen)
		}
		ids[got] = true
	}
	if len(ids) != 2 {
		t.Fatal("two requests got the same minted ID")
	}
}

// TestAuthorized: the bearer gate is open without a token, and with
// one refuses a missing or wrong token with a typed 401.
func TestAuthorized(t *testing.T) {
	for _, c := range []struct {
		token, header string
		ok            bool
	}{
		{"", "", true},
		{"sesame", "Bearer sesame", true},
		{"sesame", "", false},
		{"sesame", "Bearer sesam", false},
		{"sesame", "sesame", false},
	} {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/admin/x", nil)
		if c.header != "" {
			r.Header.Set("Authorization", c.header)
		}
		if got := Authorized(rec, r, c.token); got != c.ok {
			t.Fatalf("token %q header %q: %v, want %v", c.token, c.header, got, c.ok)
		}
		if c.ok {
			continue
		}
		if rec.Code != http.StatusUnauthorized || rec.Header().Get("WWW-Authenticate") != "Bearer" {
			t.Fatalf("refusal: %d WWW-Authenticate %q", rec.Code, rec.Header().Get("WWW-Authenticate"))
		}
		var body struct {
			Error WireError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error.Code != "unauthorized" {
			t.Fatalf("refusal body %s (%v)", rec.Body.Bytes(), err)
		}
	}
}

// TestServeGracefulShutdown: on context cancellation onDrain runs, an
// in-flight request completes within the drain window, the listener
// refuses new connections, and Serve returns cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("slow") == "1" {
			close(started)
			<-release // hold the request open across the shutdown signal
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	ctx, cancel := context.WithCancel(context.Background())
	drained := make(chan struct{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(ctx, srv, ln, 5*time.Second, func() { close(drained) }) }()

	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz?slow=1")
		if err != nil {
			reqDone <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			reqDone <- fmt.Errorf("in-flight request status %s", resp.Status)
			return
		}
		reqDone <- nil
	}()
	<-started
	cancel() // the SIGINT/SIGTERM path
	<-drained

	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned before draining the in-flight request: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request during shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve() = %v, want a clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the drain")
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestServeDrainTimeout: a request that outlives the drain window is
// force-closed and Serve reports the shutdown error.
func TestServeDrainTimeout(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("hang") == "1" {
			close(started)
			<-release
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(ctx, srv, ln, 20*time.Millisecond, nil) }()
	clientDone := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz?hang=1")
		if err == nil {
			resp.Body.Close()
		}
		clientDone <- err
	}()
	<-started
	cancel()
	select {
	case err := <-serveDone:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Serve() = %v, want a deadline-exceeded shutdown error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve hung past the drain timeout")
	}
	// The hung request's connection was force-closed, not left open.
	select {
	case err := <-clientDone:
		if err == nil {
			t.Fatal("hung request completed normally; want its connection force-closed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hung request's connection still open after the forced close")
	}
}
