package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"casq/internal/experiments"
)

// TestCorrelationsCachedSecondRequest pins the endpoint's caching
// contract: the same diagnostic requested twice is served bit-identically
// the second time, straight from the content-addressed store.
func TestCorrelationsCachedSecondRequest(t *testing.T) {
	ts := newTestServer(t, nil)
	url := ts.URL + "/backends/line6/correlations?fast=1&shots=256&instances=2&seed=5"

	resp1, body1 := get(t, url)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp1.StatusCode, body1)
	}
	if h := resp1.Header.Get("X-Casq-Cache"); h != "miss" {
		t.Errorf("first request cache header = %q", h)
	}
	resp2, body2 := get(t, url)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status = %d: %s", resp2.StatusCode, body2)
	}
	if h := resp2.Header.Get("X-Casq-Cache"); h != "hit" {
		t.Errorf("second request cache header = %q", h)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached response not bit-identical")
	}
	var rep experiments.CorrelationReport
	if err := json.Unmarshal(body2, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "line6" || rep.Strategy != "twirled" || rep.NQubits != 6 {
		t.Errorf("served report identity = %+v", rep)
	}
	if len(rep.FlipRates) != 6 || rep.Shots < 256 {
		t.Errorf("served report payload = %+v", rep)
	}

	// A different strategy is a different address: cache misses again.
	resp3, body3 := get(t, url+"&strategy=ca-dd")
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("strategy request status = %d: %s", resp3.StatusCode, body3)
	}
	if h := resp3.Header.Get("X-Casq-Cache"); h != "miss" {
		t.Errorf("distinct strategy cache header = %q", h)
	}
	if bytes.Equal(body1, body3) {
		t.Error("distinct strategies served identical payloads")
	}
}

// TestCorrelationsEngineParam checks the endpoint honors engine=: the
// stabilizer-engine report differs from the statevector one (different
// sampling paths), both succeed on a small backend, and "statevector" is
// normalized to the default engine's cache address.
func TestCorrelationsEngineParam(t *testing.T) {
	ts := newTestServer(t, nil)
	base := ts.URL + "/backends/line6/correlations?fast=1&shots=256&instances=2&seed=5"

	_, bodyDefault := get(t, base)
	respStab, bodyStab := get(t, base+"&engine=stab")
	if respStab.StatusCode != http.StatusOK {
		t.Fatalf("engine=stab status = %d: %s", respStab.StatusCode, bodyStab)
	}
	var rep experiments.CorrelationReport
	if err := json.Unmarshal(bodyStab, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Engine != "stab" {
		t.Errorf("engine=stab report records engine %q", rep.Engine)
	}
	if bytes.Equal(bodyDefault, bodyStab) {
		t.Error("stab and statevector reports are byte-identical; engine param ignored?")
	}
	// engine=statevector spells the same computation as the default: hit.
	respSv, _ := get(t, base+"&engine=statevector")
	if h := respSv.Header.Get("X-Casq-Cache"); h != "hit" {
		t.Errorf("engine=statevector after default request: cache header = %q, want hit", h)
	}
	// An explicit statevector request beyond the amplitude limit is the
	// client's mistake: 400, not a compute-path 500.
	resp, body := get(t, ts.URL+"/backends/heavyhex127/correlations?engine=statevector")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("statevector on 127q: status = %d: %s", resp.StatusCode, body)
	}
}

// TestCorrelationsErrors checks the endpoint's rejection paths: unknown
// backends 404, unknown parameters / strategies / engines 400.
func TestCorrelationsErrors(t *testing.T) {
	ts := newTestServer(t, nil)
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/backends/nosuch/correlations", http.StatusNotFound},
		{"/backends/line6/correlations?shot=16", http.StatusBadRequest},
		{"/backends/line6/correlations?maxdepth=2", http.StatusBadRequest},
		{"/backends/line6/correlations?strategy=nosuch&fast=1&shots=64&instances=2", http.StatusBadRequest},
		{"/backends/line6/correlations?engine=nosuch", http.StatusBadRequest},
		{"/backends/line6/correlations?shots=-1", http.StatusBadRequest},
		{"/backends/line6/correlations?seed=abc", http.StatusBadRequest},
		{"/backends/line6/correlations?fast=2", http.StatusBadRequest},
	} {
		resp, body := get(t, ts.URL+tc.url)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d: %s", tc.url, resp.StatusCode, tc.want, body)
		}
	}
}

// TestCorrelationsCoalesceConcurrentRequests pins that concurrent cold
// requests for one diagnostic share a single computation through the
// figure cache's in-flight coalescing: exactly one store put, one miss,
// and identical bytes for every client.
func TestCorrelationsCoalesceConcurrentRequests(t *testing.T) {
	ts, srv := newTestServerWith(t, nil, Config{SweepWorkers: 2})
	url := ts.URL + "/backends/line6/correlations?fast=1&shots=1024&instances=2&seed=9"
	var (
		wg     sync.WaitGroup
		start  = make(chan struct{})
		misses atomic.Int32
		bodies = make([][]byte, 8)
	)
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.Header.Get("X-Casq-Cache") == "miss" {
				misses.Add(1)
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}()
	}
	close(start)
	wg.Wait()
	if puts := srv.cache.Store.Stats().Puts; puts != 1 || misses.Load() != 1 {
		t.Errorf("%d concurrent cold requests: %d store puts and %d misses, want 1 and 1",
			len(bodies), puts, misses.Load())
	}
	for i := range bodies {
		if len(bodies[i]) == 0 || !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d got different bytes", i)
		}
	}
}
