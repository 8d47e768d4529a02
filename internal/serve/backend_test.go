package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"casq/internal/device"
	"casq/internal/experiments"
	"casq/internal/store"
	"casq/internal/sweep"
)

func backendTestServer(t *testing.T, compute sweep.Compute) *Server {
	t.Helper()
	st, err := store.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(&sweep.Cache{Store: st, Compute: compute}, 1)
	t.Cleanup(s.Close)
	return s
}

// TestBackendsEndpoint pins GET /backends: the full registry, in size
// order, with qubit counts.
func TestBackendsEndpoint(t *testing.T) {
	s := backendTestServer(t, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/backends", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var got []device.BackendInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(device.Backends()) {
		t.Fatalf("served %d backends, registry has %d", len(got), len(device.Backends()))
	}
	names := map[string]int{}
	for _, b := range got {
		names[b.Name] = b.NQubits
	}
	if names["heavyhex127"] != 127 {
		t.Errorf("heavyhex127 served as %d qubits", names["heavyhex127"])
	}
}

// TestFigureBackendParam pins the backend query parameter: it reaches the
// compute layer, distinguishes cache entries, and unknown/unsupported
// backends are 4xx before anything is computed or cached.
func TestFigureBackendParam(t *testing.T) {
	var gotBackend []string
	s := backendTestServer(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		gotBackend = append(gotBackend, opts.Backend)
		return experiments.Figure{ID: id}, nil
	})
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/figures/fig6?backend=heavyhex29&fast=1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Casq-Cache") != "miss" {
		t.Error("first request should miss")
	}
	if len(gotBackend) != 1 || gotBackend[0] != "heavyhex29" {
		t.Fatalf("compute saw backends %v", gotBackend)
	}

	// Same figure without the backend is a different cache entry.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/figures/fig6?fast=1", nil))
	if rec.Header().Get("X-Casq-Cache") != "miss" {
		t.Error("default-backend request must not reuse the backend entry")
	}

	// Repeat of the backend request hits.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/figures/fig6?backend=heavyhex29&fast=1", nil))
	if rec.Header().Get("X-Casq-Cache") != "hit" {
		t.Error("repeat backend request should hit")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/figures/fig6?backend=bogus", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown backend: status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/figures/fig5?backend=heavyhex29", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("fig5 with an undeclared backend must be a 400 client error, got %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/figures/fig6?engine=warp", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown engine must be a 400 client error, got %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/figures/fig5?engine=stab", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("fig5 with an undeclared engine must be a 400 client error, got %d", rec.Code)
	}
	// fig6's circuits are non-Clifford, so it declares auto but not stab:
	// a forced stab request is refused up front instead of failing in
	// the compute path with a 500.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/figures/fig6?engine=stab", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("fig6 with engine=stab must be a 400 client error, got %d", rec.Code)
	}
	if calls := len(gotBackend); calls != 2 {
		t.Errorf("compute ran %d times, want 2 (bad requests must not compute)", calls)
	}
}

// TestFigureStatevectorKeyedApart: fig8 on a backend defaults to the auto
// engine, so an explicit engine=statevector request after a default one
// is a different figure: a miss that computes with engine statevector,
// not a hit serving the auto figure.
func TestFigureStatevectorKeyedApart(t *testing.T) {
	var engines []string
	s := backendTestServer(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		engines = append(engines, opts.Engine)
		return experiments.Figure{ID: id}, nil
	})
	h := s.Handler()
	for _, q := range []string{"", "&engine=statevector"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/figures/fig8?fast=1&backend=layerfid10"+q, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%q: status %d: %s", q, rec.Code, rec.Body.String())
		}
		if c := rec.Header().Get("X-Casq-Cache"); c != "miss" {
			t.Errorf("%q: cache header %q, want miss", q, c)
		}
	}
	if len(engines) != 2 || engines[0] != "" || engines[1] != "statevector" {
		t.Errorf("compute saw engines %q, want [\"\" \"statevector\"]", engines)
	}
}

// TestOverCapRequestsRejected: a figure request or a sweep asking for
// more shots than the request cap is a 400, and nothing is computed.
func TestOverCapRequestsRejected(t *testing.T) {
	var computes atomic.Int32
	s := backendTestServer(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		computes.Add(1)
		return experiments.Figure{ID: id}, nil
	})
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/figures/figC1?fast=1&shots=2000000000", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("GET /figures over the shot cap: status %d: %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	body := strings.NewReader(`{"ids":["figC1"],"grid":{"shots":[2000000000]},"fast":true}`)
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/sweeps", body))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("POST /sweeps over the shot cap: status %d: %s", rec.Code, rec.Body.String())
	}
	if n := computes.Load(); n != 0 {
		t.Errorf("over-cap requests computed %d figures", n)
	}
}
