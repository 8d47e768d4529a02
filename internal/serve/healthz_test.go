package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"casq/internal/fabric"
	"casq/internal/obs"
	"casq/internal/store"
	"casq/internal/sweep"
)

// healthzPaths fetches /healthz and returns the sorted, dotted key paths
// of its JSON body. The requests map is keyed by endpoint name, so its
// entries collapse to the one path "requests.<endpoint>".
func healthzPaths(t *testing.T, base string) []string {
	t.Helper()
	_, body := get(t, base+"/healthz")
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("healthz = %s: %v", body, err)
	}
	var paths []string
	var walk func(prefix string, m map[string]any)
	walk = func(prefix string, m map[string]any) {
		for k, v := range m {
			path := prefix + k
			if prefix == "requests." {
				path = "requests.<endpoint>"
			}
			if sub, ok := v.(map[string]any); ok {
				walk(path+".", sub)
				continue
			}
			paths = append(paths, path)
		}
	}
	walk("", doc)
	slices.Sort(paths)
	return slices.Compact(paths)
}

// TestHealthzShape pins the /healthz key set, for a plain server and for
// one with a fabric coordinator attached, so a refactor of where the
// counts come from cannot silently add, drop or rename a field.
func TestHealthzShape(t *testing.T) {
	plain := []string{
		"draining",
		"layouts.drifts", "layouts.monitors", "layouts.recompiles",
		"ok",
		"requests.<endpoint>",
		"store.backend", "store.evictions", "store.hits", "store.mem_entries", "store.misses", "store.puts",
		"sweeps.active", "sweeps.retained",
	}
	withFabric := append([]string{
		"fabric.claims", "fabric.completes", "fabric.expirations", "fabric.heartbeats",
		"fabric.leases", "fabric.queue_depth", "fabric.sweeps", "fabric.workers",
	}, plain...)
	slices.Sort(withFabric)

	ts := newTestServer(t, nil)
	if got := healthzPaths(t, ts.URL); !slices.Equal(got, plain) {
		t.Errorf("plain server /healthz paths:\n got %q\nwant %q", got, plain)
	}

	st, err := store.Open("", 8)
	if err != nil {
		t.Fatal(err)
	}
	coord := fabric.NewCoordinator(st, fabric.Options{LeaseTTL: time.Minute})
	defer coord.Close()
	srv := NewWith(Config{Cache: sweep.NewCache(st), Coordinator: coord})
	cts := httptest.NewServer(srv.Handler())
	defer func() { cts.Close(); srv.Close() }()
	if got := healthzPaths(t, cts.URL); !slices.Equal(got, withFabric) {
		t.Errorf("coordinator /healthz paths:\n got %q\nwant %q", got, withFabric)
	}
}

// TestHealthzMatchesMetrics: once a server's traffic has stopped, the
// store and fabric counts on /healthz equal the casq_store_* and
// casq_fabric_* samples of a /metrics scrape taken right after, because
// both read the one registry counter of each event.
func TestHealthzMatchesMetrics(t *testing.T) {
	ts := newCoordinatorServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	w := fabric.NewWorker(ts.URL, 4)
	w.ID, w.Poll = "w1", 10*time.Millisecond
	stopped := make(chan struct{})
	go func() { defer close(stopped); w.Run(ctx) }()
	postSweep(t, ts, `{"ids":["fig5"],"grid":{"seeds":[1,2,3]},"fast":true,
	                   "base":{"Shots":16,"Instances":2,"MaxDepth":2,"Fast":true}}`)
	waitSweepFinished(t, ts, "sweep-1")
	get(t, ts.URL+"/figures/fig5?fast=1&shots=16&instances=2&maxdepth=2&seed=1")
	cancel()
	<-stopped

	h := getHealth(t, ts.URL)
	if h.Fabric == nil {
		t.Fatal("healthz has no fabric stats")
	}
	_, body := get(t, ts.URL+"/metrics")
	samples, err := obs.ParseProm(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	scraped := map[string]float64{}
	for _, s := range samples {
		if len(s.Labels) == 0 {
			scraped[s.Name] = s.Value
		}
	}
	for name, want := range map[string]uint64{
		"casq_store_hits_total":         h.Store.Hits,
		"casq_store_misses_total":       h.Store.Misses,
		"casq_store_evictions_total":    h.Store.Evictions,
		"casq_store_puts_total":         h.Store.Puts,
		"casq_fabric_claims_total":      h.Fabric.Claims,
		"casq_fabric_completes_total":   h.Fabric.Completes,
		"casq_fabric_heartbeats_total":  h.Fabric.Heartbeats,
		"casq_fabric_expirations_total": h.Fabric.Expirations,
	} {
		if got, ok := scraped[name]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present %v), /healthz reports %d", name, got, ok, want)
		}
	}
}
