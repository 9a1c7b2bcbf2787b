package router

// Tests for the router's /v1/admin plane: the token gate, the proxied
// backend admin tree with the retrain/migration guard, the typed
// 404/405 envelope, and the former alias paths answering it.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"c2mn/internal/httpx"
)

func adminReq(t *testing.T, method, url, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := noRedirectClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// noRedirectClient hands back 3xx responses as they are, so tests see
// a redirect instead of wherever it leads.
var noRedirectClient = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

func envelopeCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	var body struct {
		Error httpx.WireError `json:"error"`
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	return body.Error.Code
}

// TestRouterAdminMirror: the router's own admin plane answers under
// /v1/admin/ behind the token gate.
func TestRouterAdminMirror(t *testing.T) {
	a := newFakeBackend(t)
	a.venues["north"] = &fakeVenue{}
	rt := testRouter(t, Config{AdminToken: "sesame"}, a)
	srv := routerServer(t, rt)

	resp := adminReq(t, "GET", srv.URL+"/v1/admin/backends", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("GET /v1/admin/backends without token: %d, want 401", resp.StatusCode)
	}
	resp = adminReq(t, "GET", srv.URL+"/v1/admin/backends", "sesame")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/admin/backends: %d", resp.StatusCode)
	}
}

// TestRouterFormerAliasesAreGone: the pre-consolidation /admin/* mounts,
// the bare probes, the bare venue path (with or without a trailing
// slash) and venue paths msserve does not serve answer the typed
// 404/405 envelope — token or not, never a redirect, never forwarded —
// and no response carries a Deprecation header.
func TestRouterFormerAliasesAreGone(t *testing.T) {
	a := newFakeBackend(t)
	a.venues["north"] = &fakeVenue{}
	rt := testRouter(t, Config{AdminToken: "sesame"}, a)
	srv := routerServer(t, rt)

	for _, c := range []struct{ method, path string }{
		{"GET", "/healthz"},
		{"GET", "/readyz"},
		{"GET", "/admin/backends"},
		{"POST", "/admin/backends"},
		{"DELETE", "/admin/backends"},
		{"GET", "/admin/assignments"},
		{"POST", "/admin/pins"},
		{"DELETE", "/admin/pins"},
		{"POST", "/admin/migrate"},
		{"POST", "/v1/venues"},
		{"GET", "/v1/venues/north"},
		{"DELETE", "/v1/venues/north"},
		{"POST", "/v1/venues/north"},
		{"GET", "/v1/venues/north/"},
		{"GET", "/v1/venues/north/unknown"},
		{"DELETE", "/v1/venues/north/feed"},
		{"POST", "/v1/venues/north/stats"},
	} {
		resp := adminReq(t, c.method, srv.URL+c.path, "sesame")
		if got := resp.Header.Get("Deprecation"); got != "" {
			t.Errorf("%s %s Deprecation %q", c.method, c.path, got)
		}
		status := resp.StatusCode
		if status >= 300 && status < 400 {
			resp.Body.Close()
			t.Errorf("%s %s: redirect %d to %q", c.method, c.path, status, resp.Header.Get("Location"))
			continue
		}
		code := envelopeCode(t, resp)
		if !(status == http.StatusNotFound && code == "not_found") &&
			!(status == http.StatusMethodNotAllowed && code == "method_not_allowed") {
			t.Errorf("%s %s: %d %q, want the 404 or 405 envelope", c.method, c.path, status, code)
		}
	}
	if log := a.callLog(); len(log) != 0 {
		t.Errorf("former alias paths reached the backend: %v", log)
	}
}

// TestRouterProxiesAdminVenueTree: the backends' consolidated admin
// tree forwards to the venue's owner, and a retrain trigger against a
// migrating venue is refused router-side with the typed conflict.
func TestRouterProxiesAdminVenueTree(t *testing.T) {
	a := newFakeBackend(t)
	a.venues["north"] = &fakeVenue{}
	rt := testRouter(t, Config{}, a)
	srv := routerServer(t, rt)

	resp := adminReq(t, "POST", srv.URL+"/v1/admin/venues/north/retrain", "")
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("proxied retrain: %d (%s)", resp.StatusCode, body)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	log := a.callLog()
	if len(log) == 0 || log[len(log)-1] != "retrain north" {
		t.Fatalf("backend call log %v, want a retrain forward", log)
	}

	// Mid-migration the guard answers before the backend sees anything.
	rt.mu.Lock()
	rt.migrating["north"] = true
	rt.mu.Unlock()
	before := len(a.callLog())
	resp = adminReq(t, "POST", srv.URL+"/v1/admin/venues/north/retrain", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("retrain while migrating: %d, want 409", resp.StatusCode)
	}
	if code := envelopeCode(t, resp); code != "migration_conflict" {
		t.Fatalf("guard code %q, want migration_conflict", code)
	}
	if got := len(a.callLog()); got != before {
		t.Fatalf("guarded retrain still reached the backend (%d calls, was %d)", got, before)
	}

	// Other admin subpaths pass through the guard untouched, migrating
	// or not (the drain below is the migration's own tool).
	resp = adminReq(t, "POST", srv.URL+"/v1/admin/venues/north/drain", "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied drain while migrating: %d, want 200", resp.StatusCode)
	}
}

// TestRouterV1Envelope405And404: the router's mux errors under /v1
// carry the typed envelope with Allow preserved.
func TestRouterV1Envelope405And404(t *testing.T) {
	a := newFakeBackend(t)
	a.venues["north"] = &fakeVenue{}
	rt := testRouter(t, Config{}, a)
	srv := routerServer(t, rt)

	resp := adminReq(t, "DELETE", srv.URL+"/v1/query", "")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/query: %d, want 405", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("405 Content-Type %q, want JSON envelope", ct)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Fatalf("405 Allow %q lost the method list", allow)
	}
	if code := envelopeCode(t, resp); code != "method_not_allowed" {
		t.Fatalf("405 code %q", code)
	}

	resp = adminReq(t, "GET", srv.URL+"/v1/nope", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/nope: %d, want 404", resp.StatusCode)
	}
	if code := envelopeCode(t, resp); code != "not_found" {
		t.Fatalf("404 code %q", code)
	}
}
