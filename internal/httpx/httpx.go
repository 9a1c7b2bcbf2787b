// Package httpx is the HTTP plane both serving tiers share: the typed
// JSON error envelope and its code table, the response helpers, the
// request-id and mux-error middleware, the admin bearer check, the
// profiling listener, and graceful serving. cmd/msserve and
// internal/router (cmd/msrouter) mount their route tables on it, so a
// client sees one wire contract whichever tier answered.
package httpx

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"c2mn"
)

// RequestIDHeader correlates one request across the routing tier and
// the venue backends: RequestID mints one when the client sent none,
// the router forwards it, and both tiers embed it in error payloads.
const RequestIDHeader = "X-Request-ID"

// ErrVenueDraining marks feed rejections against a venue draining for
// migration, so the typed error code distinguishes a migration pause
// from a client mistake.
var ErrVenueDraining = errors.New("venue is draining")

// WireError is the typed error payload, sent as {"error": WireError}.
// RequestID reflects the request's X-Request-ID, so an error observed
// by the client is correlatable with the backend's logs and the
// router's.
type WireError struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// ErrorCode derives the stable machine-readable code of an error: the
// library's sentinel when one matches, a status-derived fallback
// otherwise.
func ErrorCode(status int, err error) string {
	switch {
	case errors.Is(err, c2mn.ErrNoBackend):
		return "no_backend"
	case errors.Is(err, c2mn.ErrMigrationConflict):
		return "migration_conflict"
	case errors.Is(err, c2mn.ErrUnknownVenue):
		return "unknown_venue"
	case errors.Is(err, c2mn.ErrInvalidQuery):
		return "invalid_query"
	case errors.Is(err, c2mn.ErrBacklog):
		return "backlog"
	case errors.Is(err, c2mn.ErrCanceled):
		return "canceled"
	case errors.Is(err, c2mn.ErrTooManyVenues):
		return "too_many_venues"
	case errors.Is(err, c2mn.ErrEmptySequence):
		return "empty_sequence"
	case errors.Is(err, c2mn.ErrModelVersion):
		return "model_version"
	case errors.Is(err, c2mn.ErrSnapshotVersion):
		return "snapshot_version"
	case errors.Is(err, c2mn.ErrSnapshotMismatch):
		return "snapshot_mismatch"
	case errors.Is(err, c2mn.ErrSnapshotConflict):
		return "snapshot_conflict"
	case errors.Is(err, c2mn.ErrSnapshotCorrupt):
		return "snapshot_corrupt"
	case errors.Is(err, ErrVenueDraining):
		return "venue_draining"
	case errors.Is(err, c2mn.ErrRetrainDisabled):
		return "retrain_disabled"
	case errors.Is(err, c2mn.ErrRetrainBusy):
		return "retrain_busy"
	case errors.Is(err, c2mn.ErrRetrainConflict):
		return "retrain_conflict"
	case errors.Is(err, c2mn.ErrRetrainSamples):
		return "retrain_samples"
	}
	switch status {
	case http.StatusBadRequest:
		return "invalid_argument"
	case http.StatusUnauthorized:
		return "unauthorized"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "body_too_large"
	case http.StatusTooManyRequests:
		return "backlog"
	case http.StatusBadGateway:
		return "backend_unreachable"
	case http.StatusServiceUnavailable:
		return "unavailable"
	}
	if status >= http.StatusInternalServerError {
		return "internal"
	}
	return "unprocessable"
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError emits the typed {"error": {"code", "message"}} envelope.
func WriteError(w http.ResponseWriter, r *http.Request, status int, err error) {
	WriteErrorWith(w, r, status, err, nil)
}

// WriteErrorWith writes the error envelope next to a partial-success
// payload's fields. payload must marshal to a JSON object without an
// "error" key; nil adds nothing.
func WriteErrorWith(w http.ResponseWriter, r *http.Request, status int, err error, payload any) {
	body := map[string]any{}
	if payload != nil {
		if buf, merr := json.Marshal(payload); merr == nil {
			// Best-effort: a payload that does not marshal still reports
			// the error below.
			json.Unmarshal(buf, &body)
		}
	}
	body["error"] = WireError{
		Code: ErrorCode(status, err), Message: err.Error(),
		RequestID: r.Header.Get(RequestIDHeader),
	}
	WriteJSON(w, status, body)
}

// NoStore marks an introspection response uncacheable. Operational
// state (stats, listings, health, admin answers) describes this instant
// on this process and must never be served stale by an intermediary;
// only the query surface is deliberately cache-validated, through its
// generation ETag.
func NoStore(w http.ResponseWriter) {
	w.Header().Set("Cache-Control", "no-store")
}

// RequestID stamps every request with an X-Request-ID — the client's
// own when it sent one, a fresh 16-hex-char ID otherwise — and echoes
// it on the response, so answers match requests across process
// boundaries. The ID is set on the request too, where error payloads
// and forwarded backend calls pick it up.
func RequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = newRequestID()
			r.Header.Set(RequestIDHeader, id)
		}
		w.Header().Set(RequestIDHeader, id)
		h.ServeHTTP(w, r)
	})
}

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Envelope upgrades the mux's own error responses — the text/plain
// 404s and auto-405s ServeMux writes for unmatched paths and wrong
// methods — to the typed JSON envelope every other error carries.
// Handler-written responses pass through untouched: the tiers' handlers
// and proxied backend answers always carry a non-text Content-Type, so
// the text/plain sniff only ever matches the mux's (and http.Error's)
// own output. The mux's Allow header on a 405 survives, since headers
// are shared with the underlying writer.
func Envelope(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ew := &envelopeWriter{ResponseWriter: w, r: r}
		h.ServeHTTP(ew, r)
		ew.finish()
	})
}

// envelopeWriter intercepts a plain-text 404/405 at WriteHeader time,
// swallows its body, and lets finish rewrite it as the typed envelope.
// Everything else streams straight through.
type envelopeWriter struct {
	http.ResponseWriter
	r         *http.Request
	intercept bool
	status    int
	wrote     bool
}

func (ew *envelopeWriter) WriteHeader(status int) {
	if ew.wrote || ew.intercept {
		return
	}
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		strings.HasPrefix(ew.Header().Get("Content-Type"), "text/plain") {
		ew.intercept = true
		ew.status = status
		return
	}
	ew.wrote = true
	ew.ResponseWriter.WriteHeader(status)
}

func (ew *envelopeWriter) Write(b []byte) (int, error) {
	if ew.intercept {
		// Drop the plain-text body; finish writes the envelope.
		return len(b), nil
	}
	ew.wrote = true
	return ew.ResponseWriter.Write(b)
}

func (ew *envelopeWriter) finish() {
	if !ew.intercept {
		return
	}
	h := ew.Header()
	h.Del("X-Content-Type-Options")
	msg := "no route matches " + ew.r.Method + " " + ew.r.URL.Path
	if ew.status == http.StatusMethodNotAllowed {
		msg = ew.r.Method + " not allowed on " + ew.r.URL.Path
		if allow := h.Get("Allow"); allow != "" {
			msg += " (allowed: " + allow + ")"
		}
	}
	WriteError(ew.ResponseWriter, ew.r, ew.status, errors.New(msg))
}

// Flush and Unwrap keep the streaming surface (/v1/watch) working
// through the wrapper: internal/notify's SSE writer resolves its
// flusher via http.NewResponseController's Unwrap chain.
func (ew *envelopeWriter) Flush() {
	if f, ok := ew.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (ew *envelopeWriter) Unwrap() http.ResponseWriter { return ew.ResponseWriter }

// Authorized enforces an admin bearer token in constant time. An empty
// token leaves the endpoint open (deployments fronted by their own
// auth). It reports whether the request may proceed, writing the 401
// itself otherwise.
func Authorized(w http.ResponseWriter, r *http.Request, token string) bool {
	if token == "" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
		w.Header().Set("WWW-Authenticate", "Bearer")
		WriteError(w, r, http.StatusUnauthorized, errors.New("admin endpoint requires a valid bearer token"))
		return false
	}
	return true
}

// StartPprof serves the net/http/pprof endpoints on their own listener
// and mux. The profiling surface is deliberately never mounted on the
// public server, which fronts untrusted traffic: an explicit mux
// (rather than the default one the pprof import registers on) keeps
// the two surfaces disjoint.
func StartPprof(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listener: %w", err)
	}
	log.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Printf("pprof server: %v", err)
		}
	}()
	return nil
}

// Serve runs srv on ln until ctx is canceled, then shuts down
// gracefully: onDrain (if non-nil) runs first — flipping readiness off
// and ending standing streams, which never go idle on their own — the
// listener closes, in-flight requests get up to drain to complete, and
// Serve returns once the server has fully stopped. Requests still
// running when drain expires are force-closed and Serve reports the
// timeout. A nil return means a clean exit (a drained shutdown or the
// listener closing normally).
func Serve(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration, onDrain func()) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	if onDrain != nil {
		onDrain()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		srv.Close()
		<-errc
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
