package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"casq/internal/experiments"
	"casq/internal/obs"
	"casq/internal/store"
	"casq/internal/sweep"
)

// testSpec is a small multi-cell sweep over real experiment ids (Cell.Key
// requires registered ids) with a cheap stubbed compute in most tests.
func testSpec(seeds []int64) sweep.Spec {
	base := experiments.FastOptions()
	base.Shots = 16
	base.Instances = 2
	base.MaxDepth = 2
	return sweep.Spec{IDs: []string{"fig5"}, Grid: sweep.Grid{Seeds: seeds}, Base: base, Fast: true}
}

// stubCompute returns a Compute that records each cell's seed and returns
// a tiny deterministic figure.
func stubCompute(count *atomic.Int32, seeds *sync.Map) sweep.Compute {
	return func(id string, opts experiments.Options) (experiments.Figure, error) {
		count.Add(1)
		if seeds != nil {
			seeds.Store(opts.Seed, true)
		}
		return experiments.Figure{ID: id, Title: fmt.Sprintf("stub seed=%d", opts.Seed)}, nil
	}
}

// countingBackend counts the writes reaching one store's backend, so a
// test can pin that store's puts while the casq_store_* counters sum
// every store in the process (worker stores included).
type countingBackend struct {
	store.Backend
	stores atomic.Int64
}

func (c *countingBackend) Store(k store.Key, data []byte) error {
	c.stores.Add(1)
	return c.Backend.Store(k, data)
}

func newTestWorker(base string, id string, client *http.Client, compute sweep.Compute) *Worker {
	st := store.OpenWith(store.NewHTTP(base, client), 64)
	return &Worker{
		Coordinator: base,
		Cache:       &sweep.Cache{Store: st, Compute: compute},
		ID:          id,
		Client:      client,
		Poll:        5 * time.Millisecond,
	}
}

// TestCoordinatorLeaseLifecycle drives claim/heartbeat/complete/expiry at
// the Go level, no HTTP: an unheartbeated lease expires and the cell is
// requeued; a heartbeated one survives; late completion gets ErrLeaseGone.
func TestCoordinatorLeaseLifecycle(t *testing.T) {
	st := store.OpenWith(nil, 16)
	c := NewCoordinator(st, Options{LeaseTTL: time.Hour}) // expiry driven manually below
	defer c.Close()
	before := c.Stats()
	sw, err := c.Submit(testSpec([]int64{1}))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	lease1, cell, _, ok := c.claim("w1", now)
	if !ok || cell.Opts.Seed != 1 {
		t.Fatalf("claim = %v, %+v", ok, cell)
	}
	if p := sw.Progress(); p.Leased != 1 || p.Finished {
		t.Fatalf("progress after claim = %+v", p)
	}
	// Nothing else to claim while the lease is live.
	if _, _, _, ok := c.claim("w2", now); ok {
		t.Fatal("second claim handed out a leased cell")
	}
	// A heartbeat within TTL keeps the lease.
	if err := c.heartbeat(lease1, now.Add(30*time.Minute)); err != nil {
		t.Fatal(err)
	}
	// Past the extended expiry the lease dies and the cell requeues.
	late := now.Add(92 * time.Minute)
	lease2, cell2, _, ok := c.claim("w2", late)
	if !ok || cell2.Opts.Seed != 1 {
		t.Fatalf("requeued claim = %v, %+v", ok, cell2)
	}
	if err := c.heartbeat(lease1, late); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("expired heartbeat err = %v", err)
	}
	// The dead worker's late completion is rejected; the live lease wins.
	if err := c.complete(lease1, sweep.CellComputed, "", late); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("late complete err = %v", err)
	}
	if err := c.complete(lease2, sweep.CellComputed, "", late); err != nil {
		t.Fatal(err)
	}
	if p := sw.Wait(); !p.Finished || p.Computed != 1 || p.Done != 1 {
		t.Errorf("final progress = %+v", p)
	}
	stats := c.Stats()
	if exp, done := stats.Expirations-before.Expirations, stats.Completes-before.Completes; exp != 1 || done != 1 {
		t.Errorf("expirations, completes = %d, %d; want 1, 1", exp, done)
	}
	if stats.Leases != 0 || stats.QueueDepth != 0 {
		t.Errorf("stats not drained = %+v", stats)
	}
}

// TestFinishedRunCollected: once a sweep's last cell is terminal the
// coordinator holds no reference to its run, so a long-lived coordinator
// does not keep every sweep it ever served in memory. Stats still counts
// the submission.
func TestFinishedRunCollected(t *testing.T) {
	c := NewCoordinator(store.OpenWith(nil, 16), Options{LeaseTTL: time.Hour})
	defer c.Close()
	run, err := c.Submit(testSpec([]int64{1}))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	lease, _, _, ok := c.claim("w1", now)
	if !ok {
		t.Fatal("claim failed")
	}
	if err := c.complete(lease, sweep.CellComputed, "", now); err != nil {
		t.Fatal(err)
	}
	if p := run.Wait(); p.Done != 1 {
		t.Fatalf("progress = %+v", p)
	}
	collected := weak.Make(run)
	run = nil
	for i := 0; i < 3 && collected.Value() != nil; i++ {
		runtime.GC()
	}
	if collected.Value() != nil {
		t.Error("finished run is still reachable from the coordinator")
	}
	if st := c.Stats(); st.Sweeps != 1 {
		t.Errorf("stats sweeps = %d, want 1", st.Sweeps)
	}
}

// TestJanitorForgetsSilentWorkers: a janitor pass keeps only the worker
// ids seen within the Stats window, so ids posted once to the
// unauthenticated claim endpoint do not pile up forever.
func TestJanitorForgetsSilentWorkers(t *testing.T) {
	const ttl = time.Hour
	c := NewCoordinator(store.OpenWith(nil, 16), Options{LeaseTTL: ttl}) // janitor passes driven manually below
	defer c.Close()
	t0 := time.Now()
	for i := 0; i < 100; i++ {
		c.claim(fmt.Sprintf("idle-%d", i), t0)
	}
	late := t0.Add(11 * ttl)
	c.claim("late", late)
	c.tick(late)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.workers["late"]; !ok || len(c.workers) != 1 {
		t.Errorf("worker table has %d entries after the janitor pass, want only the late worker", len(c.workers))
	}
}

func TestCompleteRejectsNonTerminalState(t *testing.T) {
	st := store.OpenWith(nil, 16)
	c := NewCoordinator(st, Options{})
	defer c.Close()
	if _, err := c.Submit(testSpec([]int64{1})); err != nil {
		t.Fatal(err)
	}
	lease, _, _, ok := c.claim("w1", time.Now())
	if !ok {
		t.Fatal("claim failed")
	}
	for _, bad := range []sweep.CellState{sweep.CellPending, sweep.CellLeased, "bogus"} {
		if err := c.complete(lease, bad, "", time.Now()); err == nil || errors.Is(err, ErrLeaseGone) {
			t.Errorf("state %q: err = %v", bad, err)
		}
	}
}

// killTransport passes requests through until killAfter completion
// reports have succeeded; the next /fabric/complete — and every request
// after it — fails. That simulates a worker crashing after it has
// checkpointed a result into the shared store but before the coordinator
// hears about it: the worst spot, because only the lease expiry can
// recover the cell.
type killTransport struct {
	base      http.RoundTripper
	killAfter int

	mu        sync.Mutex
	completes int
	dead      bool
	killed    chan struct{}
}

func (k *killTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	k.mu.Lock()
	if k.dead {
		k.mu.Unlock()
		return nil, errors.New("worker killed")
	}
	if strings.HasSuffix(req.URL.Path, "/fabric/complete") {
		if k.completes >= k.killAfter {
			k.dead = true
			close(k.killed)
			k.mu.Unlock()
			return nil, errors.New("worker killed mid-report")
		}
		k.completes++
	}
	k.mu.Unlock()
	return k.base.RoundTrip(req)
}

// TestLeaseExpiryRequeueZeroDuplicateWrites is the crash-recovery pin:
// worker 1 completes two cells, computes and STORES a third, then dies
// before reporting it. The lease expires, the cell requeues, and worker 2
// finishes the sweep. The already-stored cell is answered from the shared
// store — zero recomputation — and the store sees exactly one Put per
// cell — zero duplicate writes.
func TestLeaseExpiryRequeueZeroDuplicateWrites(t *testing.T) {
	puts := &countingBackend{Backend: store.NewMem()}
	c := NewCoordinator(store.OpenWith(puts, 64), Options{LeaseTTL: 150 * time.Millisecond})
	defer c.Close()
	expirations0 := c.Stats().Expirations
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	sw, err := c.Submit(testSpec([]int64{1, 2, 3, 4, 5, 6}))
	if err != nil {
		t.Fatal(err)
	}

	// Worker 1: dies on its third completion report (cells with seeds 1
	// and 2 complete; seed 3 is computed and stored but never reported).
	kt := &killTransport{base: http.DefaultTransport, killAfter: 2, killed: make(chan struct{})}
	var w1computes atomic.Int32
	w1 := newTestWorker(ts.URL, "w1", &http.Client{Transport: kt}, stubCompute(&w1computes, nil))
	ctx1, cancel1 := context.WithCancel(context.Background())
	w1done := make(chan struct{})
	go func() { defer close(w1done); w1.Run(ctx1) }()
	select {
	case <-kt.killed:
	case <-time.After(30 * time.Second):
		t.Fatal("worker 1 never reached its third completion")
	}
	cancel1()
	<-w1done
	if got := w1computes.Load(); got != 3 {
		t.Fatalf("worker 1 computed %d cells, want 3", got)
	}
	if n := puts.stores.Load(); n != 3 {
		t.Fatalf("store puts after worker 1 = %d, want 3 (killed cell must already be stored)", n)
	}

	// Worker 2: a survivor with its own cache. It must never recompute
	// the three already-stored cells.
	var w2computes atomic.Int32
	var w2seeds sync.Map
	w2 := newTestWorker(ts.URL, "w2", nil, stubCompute(&w2computes, &w2seeds))
	ctx2, cancel2 := context.WithCancel(context.Background())
	w2done := make(chan struct{})
	go func() { defer close(w2done); w2.Run(ctx2) }()

	select {
	case <-sw.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("sweep did not finish: %+v", sw.Progress())
	}
	cancel2()
	<-w2done

	p := sw.Progress()
	if !p.Finished || p.Failed != 0 || p.Done != 6 {
		t.Fatalf("final progress = %+v", p)
	}
	// The killed cell came back from the store: exactly one cached cell.
	if p.Cached != 1 || p.Computed != 5 {
		t.Errorf("progress = %+v, want 1 cached (the requeued cell) + 5 computed", p)
	}
	if got := w2computes.Load(); got != 3 {
		t.Errorf("worker 2 computed %d cells, want 3 (zero recomputation of stored cells)", got)
	}
	for _, stored := range []int64{1, 2, 3} {
		if _, recomputed := w2seeds.Load(stored); recomputed {
			t.Errorf("worker 2 recomputed already-stored cell seed=%d", stored)
		}
	}
	if n := puts.stores.Load(); n != 6 {
		t.Errorf("store puts = %d, want 6 (zero duplicate writes)", n)
	}
	if exp := c.Stats().Expirations - expirations0; exp != 1 {
		t.Errorf("lease expirations = %d, want 1", exp)
	}
}

// TestWorkerFailureReported: a compute error is a terminal failed cell
// with the message surfaced in Progress.Err, not a requeue loop.
func TestWorkerFailureReported(t *testing.T) {
	shared := store.OpenWith(store.NewMem(), 64)
	c := NewCoordinator(shared, Options{LeaseTTL: time.Minute})
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	sw, err := c.Submit(testSpec([]int64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWorker(ts.URL, "w1", nil, func(id string, opts experiments.Options) (experiments.Figure, error) {
		if opts.Seed == 2 {
			return experiments.Figure{}, errors.New("boom")
		}
		return experiments.Figure{ID: id}, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)
	p := sw.Wait()
	if p.Failed != 1 || p.Computed != 1 || !strings.Contains(p.Err, "boom") {
		t.Errorf("progress = %+v", p)
	}
}

// TestDistributedBitIdentical is the fabric acceptance pin: the same
// sweep computed by an in-process runner and by a coordinator + two
// worker processes produces bit-identical figure payloads under every
// cell's content address.
func TestDistributedBitIdentical(t *testing.T) {
	base := experiments.FastOptions()
	base.Shots = 16
	base.Instances = 2
	base.MaxDepth = 2
	spec := sweep.Spec{
		IDs:  []string{"fig5", "table1"},
		Grid: sweep.Grid{Seeds: []int64{1, 2}},
		Base: base,
		Fast: true,
	}

	// Single-process reference.
	localStore := store.OpenWith(nil, 64)
	runner := &sweep.Runner{Cache: sweep.NewCache(localStore)}
	run, err := runner.Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if p := run.Wait(); p.Failed != 0 {
		t.Fatalf("local sweep failed: %+v", p)
	}

	// Distributed: coordinator + 2 real-compute workers over HTTP.
	shared := store.OpenWith(store.NewMem(), 64)
	c := NewCoordinator(shared, Options{LeaseTTL: 10 * time.Second})
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := NewWorker(ts.URL, 64)
		w.ID = fmt.Sprintf("w%d", i+1)
		w.Poll = 5 * time.Millisecond
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}
	// Submit only once both workers have polled the empty queue: a worker
	// that starts late could otherwise find all four cells already done.
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Workers < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator saw %d workers before the sweep, want 2", c.Stats().Workers)
		}
	}
	sw, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sw.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("distributed sweep did not finish: %+v", sw.Progress())
	}
	if p := sw.Progress(); p.Failed != 0 || p.Done != p.Total {
		t.Fatalf("distributed progress = %+v", p)
	}
	cancel()
	wg.Wait()

	cells := sw.Cells()
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	for _, cell := range cells {
		key, err := cell.Key()
		if err != nil {
			t.Fatal(err)
		}
		want, ok, err := localStore.Get(key)
		if err != nil || !ok {
			t.Fatalf("local result missing for %s seed=%d: %v", cell.ID, cell.Opts.Seed, err)
		}
		got, ok, err := shared.Get(key)
		if err != nil || !ok {
			t.Fatalf("distributed result missing for %s seed=%d: %v", cell.ID, cell.Opts.Seed, err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s seed=%d: distributed payload differs from single-process", cell.ID, cell.Opts.Seed)
		}
	}
	if st := c.Stats(); st.Workers != 2 {
		t.Errorf("coordinator saw %d workers, want 2", st.Workers)
	}
}

// TestTracePropagation: the trace id the coordinator assigns to a sweep
// rides the claim response across the HTTP hop, so every span a remote
// worker records for that sweep's cells carries the coordinator's id —
// one distributed trace, stitched with no shared memory.
func TestTracePropagation(t *testing.T) {
	shared := store.OpenWith(store.NewMem(), 64)
	c := NewCoordinator(shared, Options{LeaseTTL: time.Minute})
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	sw, err := c.Submit(testSpec([]int64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if sw.TraceID() == 0 {
		t.Fatal("sweep trace id is zero")
	}

	var computes atomic.Int32
	w := newTestWorker(ts.URL, "w1", nil, stubCompute(&computes, nil))
	w.Tracer = obs.NewTracer()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)
	if p := sw.Wait(); p.Failed != 0 || p.Done != 2 {
		t.Fatalf("progress = %+v", p)
	}
	cancel()

	cellSpans := 0
	for _, ev := range w.Tracer.Events() {
		if !strings.HasPrefix(ev.Name, "fabric.cell:") {
			continue
		}
		cellSpans++
		if ev.Trace != sw.TraceID() {
			t.Errorf("span %s trace = %016x, want coordinator's %016x", ev.Name, ev.Trace, sw.TraceID())
		}
	}
	if cellSpans != 2 {
		t.Errorf("worker recorded %d fabric.cell spans, want 2", cellSpans)
	}
}
