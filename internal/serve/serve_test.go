package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"casq/internal/experiments"
	"casq/internal/fabric"
	"casq/internal/store"
	"casq/internal/sweep"
)

// newTestServer returns an httptest server over a memory store whose
// compute path counts harness invocations.
func newTestServer(t *testing.T, computes *atomic.Int32) *httptest.Server {
	ts, _ := newTestServerWith(t, computes, Config{SweepWorkers: 2})
	return ts
}

// newTestServerWith is newTestServer with an explicit Config (its Cache
// field is filled in here).
func newTestServerWith(t *testing.T, computes *atomic.Int32, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	st, err := store.Open("", 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = &sweep.Cache{Store: st, Compute: func(id string, opts experiments.Options) (experiments.Figure, error) {
		if computes != nil {
			computes.Add(1)
		}
		return experiments.Run(id, opts)
	}}
	srv := NewWith(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, srv
}

// newCoordinatorServer returns an httptest server whose Server has a
// fabric coordinator attached, over a fresh memory-only store.
func newCoordinatorServer(t *testing.T) *httptest.Server {
	t.Helper()
	st, err := store.Open("", 64)
	if err != nil {
		t.Fatal(err)
	}
	coord := fabric.NewCoordinator(st, fabric.Options{LeaseTTL: time.Minute})
	srv := NewWith(Config{Cache: sweep.NewCache(st), Coordinator: coord})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); coord.Close() })
	return ts
}

// countingBackend counts the writes reaching one store's backend, so a
// test can pin that store's puts while the casq_store_* counters sum
// every store in the process.
type countingBackend struct {
	store.Backend
	stores atomic.Int64
}

func (c *countingBackend) Store(k store.Key, data []byte) error {
	c.stores.Add(1)
	return c.Backend.Store(k, data)
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestExperimentsEndpoint(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, body := get(t, ts.URL+"/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var specs []experiments.Spec
	if err := json.Unmarshal(body, &specs); err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(experiments.IDs()) {
		t.Fatalf("served %d specs, want %d", len(specs), len(experiments.IDs()))
	}
	if specs[0].ID != "fig3c" || specs[0].Paper != "Fig. 3c" {
		t.Errorf("first spec = %+v", specs[0])
	}
	// The declared axes are enumerable by clients.
	if len(specs[0].Axes) == 0 || specs[0].Axes[0].Name != "depth" {
		t.Errorf("fig3c axes = %+v", specs[0].Axes)
	}
}

// TestFigureCachedSecondRequest pins the serving acceptance criterion: the
// same figure requested twice computes once, and the second response is
// served from the store with a bit-identical payload.
func TestFigureCachedSecondRequest(t *testing.T) {
	var computes atomic.Int32
	ts := newTestServer(t, &computes)
	url := ts.URL + "/figures/fig3c?fast=1&shots=16&instances=2&maxdepth=2"

	resp1, body1 := get(t, url)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp1.StatusCode, body1)
	}
	if h := resp1.Header.Get("X-Casq-Cache"); h != "miss" {
		t.Errorf("first request cache header = %q", h)
	}
	resp2, body2 := get(t, url)
	if h := resp2.Header.Get("X-Casq-Cache"); h != "hit" {
		t.Errorf("second request cache header = %q", h)
	}
	if computes.Load() != 1 {
		t.Errorf("computed %d times, want 1", computes.Load())
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached response not bit-identical")
	}
	var fig experiments.Figure
	if err := json.Unmarshal(body2, &fig); err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig3c" || len(fig.Series) == 0 {
		t.Errorf("served figure = %+v", fig)
	}
	// A different configuration is a different address: computes again.
	get(t, ts.URL+"/figures/fig3c?fast=1&shots=16&instances=2&maxdepth=2&seed=99")
	if computes.Load() != 2 {
		t.Errorf("distinct options should recompute: %d", computes.Load())
	}
}

func TestFigureErrors(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, _ := get(t, ts.URL+"/figures/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status = %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/figures/fig5?shots=banana")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad shots status = %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/figures/fig5?fast=maybe")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad fast status = %d", resp.StatusCode)
	}
}

func TestSweepLifecycle(t *testing.T) {
	var computes atomic.Int32
	ts := newTestServer(t, &computes)

	spec := `{"ids":["fig5","table1"],"grid":{"seeds":[1,2]},"fast":true,
	          "base":{"Seed":11,"Shots":16,"Instances":2,"MaxDepth":2,"Fast":true}}`
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	var acc struct {
		ID     string `json:"id"`
		Total  int    `json:"total"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Total != 4 || acc.ID == "" {
		t.Fatalf("accepted = %+v", acc)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := get(t, ts.URL+acc.Status)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll = %d: %s", resp.StatusCode, body)
		}
		var st struct {
			Progress sweep.Progress `json:"progress"`
			Cells    []struct {
				Experiment string `json:"experiment"`
				State      string `json:"state"`
			} `json:"cells"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Progress.Finished {
			if st.Progress.Done != 4 || st.Progress.Failed != 0 {
				t.Fatalf("final progress = %+v", st.Progress)
			}
			if len(st.Cells) != 4 || st.Cells[0].Experiment != "fig5" {
				t.Fatalf("cells = %+v", st.Cells)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep did not finish in time")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The sweep checkpointed its cells: a figure request for one of them
	// is a pure store hit.
	before := computes.Load()
	resp2, _ := get(t, ts.URL+"/figures/fig5?fast=1&shots=16&instances=2&maxdepth=2&seed=1")
	if h := resp2.Header.Get("X-Casq-Cache"); h != "hit" {
		t.Errorf("post-sweep figure request = %q, want hit", h)
	}
	if computes.Load() != before {
		t.Error("post-sweep figure request recomputed")
	}

	resp3, _ := get(t, ts.URL+"/sweeps/sweep-999")
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep status = %d", resp3.StatusCode)
	}
}

func TestSweepSubmitRejectsBadSpec(t *testing.T) {
	ts := newTestServer(t, nil)
	// 32 values on each of four axes: 2^20 cells from a ~450-byte body.
	vals := make([]string, 32)
	for i := range vals {
		vals[i] = strconv.Itoa(i + 1)
	}
	axis := "[" + strings.Join(vals, ",") + "]"
	huge := `{"ids":["fig5"],"grid":{"seeds":` + axis + `,"shots":` + axis +
		`,"instances":` + axis + `,"max_depths":` + axis + `}}`
	negative := `{"ids":["fig3c"],"grid":{"shots":[-1],"instances":[-3],"max_depths":[-2]},"fast":true}`
	for _, bad := range []string{`{"ids":["nope"]}`, `{"unknown_field":1}`, `not json`, huge, negative} {
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q status = %d", bad, resp.StatusCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h struct {
		OK    bool        `json:"ok"`
		Store store.Stats `json:"store"`
	}
	if err := json.Unmarshal(body, &h); err != nil || !h.OK {
		t.Fatalf("health = %s (%v)", body, err)
	}
}

// TestFigureRejectsUnknownParam: a typoed query parameter must not
// silently serve (and cache) a different configuration.
func TestFigureRejectsUnknownParam(t *testing.T) {
	ts := newTestServer(t, nil)
	for _, q := range []string{"shot=100", "seeds=5", "fast=1&depth=3"} {
		resp, body := get(t, ts.URL+"/figures/fig5?"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q status = %d: %s", q, resp.StatusCode, body)
		}
	}
}

// TestSweepHistoryBounded pins the history cap: old finished sweeps are
// pruned once submissions exceed maxSweepHistory, newest stay reachable.
// HistoryTTL < 0 prunes finished runs the moment the cap is hit (the TTL
// grace period has its own test); the admission bound is lifted because
// the test submits faster than runs are noticed finished.
func TestSweepHistoryBounded(t *testing.T) {
	ts, _ := newTestServerWith(t, nil, Config{SweepWorkers: 2, HistoryTTL: -1, MaxActiveSweeps: -1})
	spec := `{"ids":["fig5"],"fast":true,"base":{"Seed":11,"Shots":16,"Instances":2,"MaxDepth":2,"Fast":true}}`
	submit := func() string {
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &acc); err != nil || acc.ID == "" {
			t.Fatalf("submit: %s (%v)", body, err)
		}
		return acc.ID
	}
	waitFinished := func(id string) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			_, body := get(t, ts.URL+"/sweeps/"+id)
			var st struct {
				Progress sweep.Progress `json:"progress"`
			}
			if err := json.Unmarshal(body, &st); err == nil && st.Progress.Finished {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("sweep %s did not finish", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	first := submit()
	waitFinished(first) // computed once; every later submission is a store hit
	var last string
	for i := 0; i < maxSweepHistory+10; i++ {
		last = submit()
	}
	waitFinished(last)
	// Give pruning one more trigger now that everything is finished.
	final := submit()
	waitFinished(final)
	if resp, _ := get(t, ts.URL+"/sweeps/"+first); resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest sweep still retained: %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/sweeps/"+final); resp.StatusCode != http.StatusOK {
		t.Errorf("newest sweep pruned: %d", resp.StatusCode)
	}
}

// TestSweepSubmitFillsPartialBase: a partially-specified base gets unset
// fields defaulted per-field — it must never run (and checkpoint) a
// meaningless 0-shot configuration.
func TestSweepSubmitFillsPartialBase(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+"/sweeps", "application/json",
		strings.NewReader(`{"ids":["fig5"],"fast":true,"base":{"Fast":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	var acc struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, ts.URL+acc.Status)
	var st struct {
		Cells []sweepCellState `json:"cells"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	want := experiments.FastOptions()
	if len(st.Cells) != 1 {
		t.Fatalf("cells = %+v", st.Cells)
	}
	c := st.Cells[0]
	if c.Shots != want.Shots || c.Instances != want.Instances || c.Seed != want.Seed {
		t.Errorf("partial base not defaulted: %+v (want shots=%d instances=%d seed=%d)",
			c, want.Shots, want.Instances, want.Seed)
	}
}
