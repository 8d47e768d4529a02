package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"casq/internal/experiments"
	"casq/internal/store"
)

func memCache(t *testing.T, compute Compute) *Cache {
	t.Helper()
	st, err := store.Open("", 64)
	if err != nil {
		t.Fatal(err)
	}
	return &Cache{Store: st, Compute: compute}
}

func TestCellsExpansion(t *testing.T) {
	spec := Spec{
		IDs:  []string{"fig5", "table1"},
		Grid: Grid{Seeds: []int64{1, 2, 3}, Shots: []int{16, 32}},
		Base: experiments.FastOptions(),
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*3*2 {
		t.Fatalf("expanded %d cells, want 12", len(cells))
	}
	// Un-swept axes inherit the base; swept axes are bound per cell.
	if cells[0].ID != "fig5" || cells[0].Opts.Seed != 1 || cells[0].Opts.Shots != 16 {
		t.Errorf("first cell = %+v", cells[0])
	}
	if cells[0].Opts.Instances != experiments.FastOptions().Instances {
		t.Error("base instances not inherited")
	}
	if _, err := (Spec{IDs: []string{"nope"}}).Cells(); err == nil {
		t.Error("unknown id must fail expansion")
	}
	// Empty spec covers the whole catalog once.
	all, err := Spec{Base: experiments.FastOptions()}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(experiments.IDs()) {
		t.Errorf("catalog sweep has %d cells, want %d", len(all), len(experiments.IDs()))
	}
	// Expansion is bounded. 128 seeds × 128 shots is exactly the cap; one
	// seed more is refused, as are 32 values on each of four axes (2^20
	// cells from a body of a few hundred bytes).
	wide := make([]int, 128)
	seeds := make([]int64, 129)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	for i := range wide {
		wide[i] = i + 1
	}
	edge := Spec{IDs: []string{"fig5"}, Grid: Grid{Seeds: seeds[:128], Shots: wide}, Base: experiments.FastOptions()}
	if cells, err := edge.Cells(); err != nil || len(cells) != maxCells {
		t.Errorf("spec at the cap: %d cells, err %v", len(cells), err)
	}
	edge.Grid.Seeds = seeds
	if _, err := edge.Cells(); err == nil {
		t.Error("spec one row over the cap was expanded")
	}
	huge := Spec{
		IDs:  []string{"fig5"},
		Grid: Grid{Seeds: seeds[:32], Shots: wide[:32], Instances: wide[:32], MaxDepths: wide[:32]},
		Base: experiments.FastOptions(),
	}
	if cells, err := huge.Cells(); err == nil {
		t.Errorf("32^4 grid expanded to %d cells", len(cells))
	}
}

// TestRunSetLifecycle drives one Run through the transitions the fabric
// coordinator makes with Set: lease, requeue on lease expiry, lease again,
// and terminal reports.
func TestRunSetLifecycle(t *testing.T) {
	if p := NewRun(nil).Progress(); !p.Finished {
		t.Errorf("run without cells = %+v, want finished", p)
	}
	before := mCells.Snapshot()
	run := NewRun(make([]Cell, 2))

	changed := run.Changed()
	run.Set(0, CellLeased, "")
	select {
	case <-changed:
	default:
		t.Fatal("Set did not wake Changed")
	}
	if p := run.Progress(); p.Leased != 1 || p.Finished {
		t.Fatalf("progress after lease = %+v", p)
	}
	// An expired lease requeues the cell; that is no step towards finishing.
	run.Set(0, CellPending, "")
	run.Set(0, CellLeased, "")
	run.Set(0, CellFailed, "first failure")
	run.Set(1, CellLeased, "")
	if p := run.Progress(); p.Finished || p.Failed != 1 || p.Leased != 1 {
		t.Fatalf("progress with one cell out = %+v", p)
	}
	if !run.FinishedAt().IsZero() {
		t.Error("FinishedAt set while a cell is leased")
	}
	select {
	case <-run.Done():
		t.Fatal("Done closed while a cell is leased")
	default:
	}

	// A watcher woken by the last terminal Set must find the run finished.
	finished := make(chan bool)
	changed = run.Changed()
	go func() {
		<-changed
		select {
		case <-run.Done():
			finished <- run.Progress().Finished
		default:
			finished <- false
		}
	}()
	run.Set(1, CellFailed, "second failure")
	if !<-finished {
		t.Error("watcher woken by the last Set saw an unfinished run")
	}
	p := run.Progress()
	if !p.Finished || p.Failed != 2 || p.Leased != 0 || p.Err != "first failure" {
		t.Errorf("final progress = %+v", p)
	}
	if run.FinishedAt().IsZero() {
		t.Error("FinishedAt still zero after the last terminal Set")
	}

	after := mCells.Snapshot()
	if _, ok := after[string(CellPending)]; ok {
		t.Error("pending transitions recorded on casq_sweep_cells_total")
	}
	if got := after["leased"] - before["leased"]; got != 3 {
		t.Errorf("leased transitions recorded = %d, want 3", got)
	}
	if got := after["failed"] - before["failed"]; got != 2 {
		t.Errorf("failed transitions recorded = %d, want 2", got)
	}
}

func TestCellKeyStableAndWorkerBlind(t *testing.T) {
	base := Cell{ID: "fig6", Opts: experiments.FastOptions()}
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := base.Key()
	if k1 != k2 {
		t.Error("key not deterministic")
	}
	// Workers only changes parallelism, never results: same address.
	workers := base
	workers.Opts.Workers = 7
	if kw, _ := workers.Key(); kw != k1 {
		t.Error("worker count fragmented the cache key")
	}
	// Every result-affecting option must move the address.
	seed := base
	seed.Opts.Seed++
	if ks, _ := seed.Key(); ks == k1 {
		t.Error("seed change kept the same key")
	}
	other := Cell{ID: "fig10", Opts: base.Opts}
	if ko, _ := other.Key(); ko == k1 {
		t.Error("different experiments share a key")
	}
	if _, err := (Cell{ID: "nope"}).Key(); err == nil {
		t.Error("unknown id must not produce a key")
	}
}

// TestCacheHitBitIdentity pins the acceptance contract: the second request
// for a figure does not recompute, and its payload is byte-identical both
// to the first response and to a fresh out-of-band compute.
func TestCacheHitBitIdentity(t *testing.T) {
	var computes atomic.Int32
	cache := memCache(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		computes.Add(1)
		return experiments.Run(id, opts)
	})
	cell := Cell{ID: "fig5", Opts: experiments.FastOptions()}

	first, hit, err := cache.Figure(cell)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first request cannot be a hit")
	}
	second, hit, err := cache.Figure(cell)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second request must be served from the store")
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("computed %d times, want 1", got)
	}
	if !bytes.Equal(first, second) {
		t.Error("cached payload differs from the original response")
	}
	fresh, err := experiments.Run(cell.ID, cell.Opts)
	if err != nil {
		t.Fatal(err)
	}
	freshJSON, _ := json.Marshal(fresh)
	if !bytes.Equal(second, freshJSON) {
		t.Error("cached payload differs from a fresh compute")
	}
	var fig experiments.Figure
	if err := json.Unmarshal(second, &fig); err != nil {
		t.Fatalf("cached payload not a figure: %v", err)
	}
	if fig.ID != "fig5" {
		t.Errorf("round-tripped figure id = %q", fig.ID)
	}
}

// fakeFigure is a cheap deterministic compute for scheduler tests.
func fakeFigure(id string, opts experiments.Options) (experiments.Figure, error) {
	fig := experiments.Figure{ID: id, Title: "fake"}
	fig.AddSeries("s", []float64{0}, []float64{float64(opts.Seed)})
	return fig, nil
}

func TestRunnerRunsAllCells(t *testing.T) {
	var computes atomic.Int32
	cache := memCache(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		computes.Add(1)
		return fakeFigure(id, opts)
	})
	spec := Spec{
		IDs:  []string{"fig5", "fig6", "table1"},
		Grid: Grid{Seeds: []int64{1, 2, 3, 4}},
		Base: experiments.FastOptions(),
	}
	run, err := (&Runner{Cache: cache, Workers: 4}).Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	p := run.Wait()
	if !p.Finished || p.Total != 12 || p.Computed != 12 || p.Failed != 0 || p.Skipped != 0 {
		t.Fatalf("progress = %+v", p)
	}
	if got := computes.Load(); got != 12 {
		t.Errorf("computed %d cells, want 12", got)
	}
	// Re-running the same sweep touches the store, not the harnesses.
	run2, _ := (&Runner{Cache: cache, Workers: 4}).Start(context.Background(), spec)
	p2 := run2.Wait()
	if p2.Cached != 12 || p2.Computed != 0 {
		t.Fatalf("second run progress = %+v", p2)
	}
	if got := computes.Load(); got != 12 {
		t.Errorf("second run recomputed: %d total computes", got)
	}
}

// TestResumeAfterInterrupt cancels a sweep mid-flight and restarts it:
// finished cells must come back from their checkpoints, and the total
// number of harness invocations across both runs must equal the cell
// count — nothing is computed twice.
func TestResumeAfterInterrupt(t *testing.T) {
	dir := t.TempDir()
	openCache := func(computes *atomic.Int32, cancelAfter int32, cancel context.CancelFunc) *Cache {
		st, err := store.Open(dir, 64)
		if err != nil {
			t.Fatal(err)
		}
		return &Cache{Store: st, Compute: func(id string, opts experiments.Options) (experiments.Figure, error) {
			if computes.Add(1) == cancelAfter {
				cancel()
			}
			return fakeFigure(id, opts)
		}}
	}
	spec := Spec{
		IDs:  []string{"fig5"},
		Grid: Grid{Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8}},
		Base: experiments.FastOptions(),
	}

	var computes atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Workers=1 so the interrupt point is deterministic: the third compute
	// cancels, the claimed cell still completes and checkpoints.
	run, err := (&Runner{Cache: openCache(&computes, 3, cancel), Workers: 1}).Start(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	p := run.Wait()
	if p.Computed != 3 || p.Skipped != 5 || p.Finished != true {
		t.Fatalf("interrupted progress = %+v", p)
	}

	// "New process": fresh store over the same directory, fresh cache.
	run2, err := (&Runner{Cache: openCache(&computes, -1, func() {}), Workers: 1}).Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	p2 := run2.Wait()
	if p2.Cached != 3 || p2.Computed != 5 || p2.Failed != 0 {
		t.Fatalf("resumed progress = %+v", p2)
	}
	if got := computes.Load(); got != 8 {
		t.Errorf("total computes across interrupt+resume = %d, want 8", got)
	}
}

func TestRunnerReportsFailure(t *testing.T) {
	boom := errors.New("boom")
	cache := memCache(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		if opts.Seed == 2 {
			return experiments.Figure{}, boom
		}
		return fakeFigure(id, opts)
	})
	spec := Spec{IDs: []string{"fig5"}, Grid: Grid{Seeds: []int64{1, 2, 3}}, Base: experiments.FastOptions()}
	run, err := (&Runner{Cache: cache, Workers: 2}).Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	p := run.Wait()
	if p.Failed != 1 || p.Computed != 2 {
		t.Fatalf("progress = %+v", p)
	}
	if p.Err == "" {
		t.Error("first error not surfaced")
	}
	states := run.States()
	var failed int
	for _, st := range states {
		if st == CellFailed {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("states = %v", states)
	}
}

func TestCacheComputeErrorNotCheckpointed(t *testing.T) {
	calls := 0
	cache := memCache(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		calls++
		return experiments.Figure{}, fmt.Errorf("transient %d", calls)
	})
	cell := Cell{ID: "fig5", Opts: experiments.FastOptions()}
	if _, _, err := cache.Figure(cell); err == nil {
		t.Fatal("error must propagate")
	}
	// A failure leaves no poisoned entry: the next request recomputes.
	if _, _, err := cache.Figure(cell); err == nil || calls != 2 {
		t.Fatalf("calls = %d, err = %v", calls, err)
	}
}

// TestFigureCoalescesConcurrentMisses pins the singleflight behavior: N
// concurrent requests for one uncached cell run the compute exactly once
// and all receive the same bytes.
func TestFigureCoalescesConcurrentMisses(t *testing.T) {
	var computes atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	cache := memCache(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		computes.Add(1)
		close(started)
		<-release
		return fakeFigure(id, opts)
	})
	cell := Cell{ID: "fig5", Opts: experiments.FastOptions()}

	type result struct {
		data []byte
		err  error
	}
	const waiters = 8
	results := make(chan result, waiters)
	go func() {
		data, _, err := cache.Figure(cell) // leader
		results <- result{data, err}
	}()
	<-started // leader is inside compute; the rest must join its flight
	for i := 1; i < waiters; i++ {
		go func() {
			data, _, err := cache.Figure(cell)
			results <- result{data, err}
		}()
	}
	close(release)
	var first []byte
	for i := 0; i < waiters; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if first == nil {
			first = r.data
		} else if !bytes.Equal(first, r.data) {
			t.Error("coalesced requests returned different bytes")
		}
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("computed %d times under concurrency, want 1", got)
	}
}

// TestFigureCoalescedErrorPropagates: a failing computation fails its
// coalesced waiters too (a waiter that misses the flight window computes
// and fails itself), and nothing poisoned is checkpointed.
func TestFigureCoalescedErrorPropagates(t *testing.T) {
	var computes atomic.Int32
	var failing atomic.Bool
	failing.Store(true)
	started := make(chan struct{})
	release := make(chan struct{})
	cache := memCache(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		n := computes.Add(1)
		if failing.Load() {
			if n == 1 {
				close(started)
				<-release
			}
			return experiments.Figure{}, errors.New("compute failed")
		}
		return fakeFigure(id, opts)
	})
	cell := Cell{ID: "fig5", Opts: experiments.FastOptions()}
	errs := make(chan error, 2)
	go func() { _, _, err := cache.Figure(cell); errs <- err }()
	<-started // leader is parked inside its failing compute
	go func() { _, _, err := cache.Figure(cell); errs <- err }()
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			t.Error("caller did not see the computation failure")
		}
	}
	if got := computes.Load(); got < 1 || got > 2 {
		t.Errorf("computes = %d, want 1 (coalesced) or 2 (flight window missed)", got)
	}
	// The failures were not checkpointed: the next request recomputes.
	failing.Store(false)
	if _, hit, err := cache.Figure(cell); err != nil || hit {
		t.Fatalf("retry after failure: hit=%v err=%v", hit, err)
	}
}

// TestDerivedFigureReusesCachedBase pins the fig7d dependency contract:
// computing the derived figure through the cache checkpoints (and later
// reuses) the fig7c base instead of re-running the base simulation, and
// the result is byte-identical to a standalone compute.
func TestDerivedFigureReusesCachedBase(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	st, err := store.Open("", 64)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(st) // default compute path resolves declared derivations
	opts := experiments.FastOptions()
	opts.Shots, opts.Instances, opts.MaxDepth = 16, 2, 2

	derived, hit, err := cache.Figure(Cell{ID: "fig7d", Opts: opts})
	if err != nil || hit {
		t.Fatalf("first fig7d: hit=%v err=%v", hit, err)
	}
	// The base was checkpointed on the way: fig7c is now a pure hit.
	if _, hit, err := cache.Figure(Cell{ID: "fig7c", Opts: opts}); err != nil || !hit {
		t.Fatalf("fig7c after fig7d: hit=%v err=%v", hit, err)
	}
	// And the cached derivation matches a standalone recompute exactly.
	fresh, err := experiments.Run("fig7d", opts)
	if err != nil {
		t.Fatal(err)
	}
	freshJSON, _ := json.Marshal(fresh)
	if !bytes.Equal(derived, freshJSON) {
		t.Error("derived figure differs from standalone compute")
	}
}

// TestCellKeyIgnoresIrrelevantMaxDepth: MaxDepth acts only through a
// declared depth axis, so for axis-free experiments it must not fragment
// the cache.
func TestCellKeyIgnoresIrrelevantMaxDepth(t *testing.T) {
	// fig8 has no depth axis: MaxDepth cannot affect its result.
	a := Cell{ID: "fig8", Opts: experiments.Options{Seed: 1, Shots: 16, Instances: 2, MaxDepth: 2}}
	b := a
	b.Opts.MaxDepth = 6
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kb, _ := b.Key(); kb != ka {
		t.Error("MaxDepth fragmented the key of a depth-axis-free experiment")
	}
	// fig6 has one: MaxDepth is result-affecting and must move the key.
	c := Cell{ID: "fig6", Opts: a.Opts}
	d := c
	d.Opts.MaxDepth = 6
	kc, _ := c.Key()
	if kd, _ := d.Key(); kd == kc {
		t.Error("MaxDepth ignored for a depth-swept experiment")
	}
}

// TestSweepFigCEngineGrid runs the correlation-spectroscopy spec over the
// engine axis with the real harness: each engine is a distinct cell with
// its own checkpoint, and rerunning the grid is answered entirely from
// the store.
func TestSweepFigCEngineGrid(t *testing.T) {
	var computes atomic.Int32
	cache := memCache(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		computes.Add(1)
		return experiments.Run(id, opts)
	})
	base := experiments.FastOptions()
	base.Shots = 128
	base.Instances = 2
	spec := Spec{
		IDs:  []string{"figC1"},
		Grid: Grid{Engines: []string{"statevector", "stab"}},
		Base: base,
	}
	run, err := (&Runner{Cache: cache, Workers: 2}).Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	p := run.Wait()
	if !p.Finished || p.Total != 2 || p.Computed != 2 || p.Failed != 0 {
		t.Fatalf("progress = %+v", p)
	}
	run2, _ := (&Runner{Cache: cache, Workers: 2}).Start(context.Background(), spec)
	if p2 := run2.Wait(); p2.Cached != 2 || p2.Computed != 0 {
		t.Fatalf("second run progress = %+v", p2)
	}
	if got := computes.Load(); got != 2 {
		t.Errorf("computed %d cells across both runs, want 2", got)
	}
	// The spectroscopy specs do not honor an engine they don't declare.
	bad := Spec{IDs: []string{"figC1"}, Grid: Grid{Engines: []string{"nosuch"}}, Base: base}
	if _, err := bad.Cells(); err == nil {
		t.Error("unknown engine must fail expansion")
	}
}
