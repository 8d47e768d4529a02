// Package sweep turns the experiment catalog into schedulable batch work.
// A Spec names experiment ids and a Grid of option axes (seeds, shot
// budgets, twirl instances, depth clamps); Cells expands the grid into the
// cartesian product of concrete (id, Options) cells. A Runner executes
// cells with bounded concurrency through a Cache, which consults the
// content-addressed store before computing and checkpoints every computed
// figure back into it — so an interrupted sweep, restarted with the same
// spec, resumes from its checkpoints and recomputes nothing that already
// finished, and a repeated figure request is answered bit-identically from
// cache.
package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"casq/internal/exec"
	"casq/internal/experiments"
	"casq/internal/obs"
	"casq/internal/store"
)

// descriptorRev versions the cell descriptor. Bump it when harness
// internals change in a result-affecting way that the descriptor fields do
// not capture (device construction, pipeline composition), so stale cached
// figures are never served for the new code.
//
// Rev 2: the backend axis joined the descriptor (and Spec declarations
// gained Backends), so every pre-backend checkpoint is retired.
//
// Rev 3: the engine axis joined the descriptor — a figure computed by the
// stabilizer engine is a different artifact from the statevector one, so
// pre-engine checkpoints are retired rather than ever being served for an
// engine-qualified request.
const descriptorRev = 3

// Compute regenerates one figure from scratch. The default is
// experiments.Run; tests substitute counting or failing stand-ins.
type Compute func(id string, opts experiments.Options) (experiments.Figure, error)

// Cell is one concrete unit of sweep work: a single experiment at fully
// bound options.
type Cell struct {
	ID   string              `json:"id"`
	Opts experiments.Options `json:"opts"`
}

// descriptor is the canonical request identity a Cell hashes to. Workers
// is deliberately excluded: executor results are bit-identical for every
// worker count, so parallelism must not fragment the cache.
type descriptor struct {
	Rev        int                `json:"rev"`
	ID         string             `json:"id"`
	Title      string             `json:"title"`
	Paper      string             `json:"paper"`
	Strategies []string           `json:"strategies"`
	Axes       []experiments.Axis `json:"axes"`
	Seed       int64              `json:"seed"`
	Shots      int                `json:"shots"`
	Instances  int                `json:"instances"`
	MaxDepth   int                `json:"max_depth"`
	Fast       bool               `json:"fast"`
	Backend    string             `json:"backend"`
	Engine     string             `json:"engine"`
}

// Key returns the cell's content address: the fingerprint of the
// experiment's declared Spec plus every result-affecting option.
// MaxDepth acts only through the declared "depth" axis (Spec.Depths is
// its sole consumer), so for specs without one it is normalized to zero —
// sweeping max_depths over an axis-free experiment then dedups to a
// single computation instead of storing identical bytes under many keys.
func (c Cell) Key() (store.Key, error) {
	sp, ok := experiments.Lookup(c.ID)
	if !ok {
		return "", fmt.Errorf("sweep: unknown experiment %q", c.ID)
	}
	maxDepth := c.Opts.MaxDepth
	if len(sp.AxisValues("depth", c.Opts)) == 0 {
		maxDepth = 0
	}
	if !sp.SupportsBackend(c.Opts.Backend) {
		return "", fmt.Errorf("sweep: %s does not support backend %q (declared: %v)",
			c.ID, c.Opts.Backend, sp.Backends)
	}
	if !exec.ValidEngine(c.Opts.Engine) {
		return "", fmt.Errorf("sweep: unknown engine %q (known: %v)", c.Opts.Engine, exec.EngineNames())
	}
	if !sp.SupportsEngine(c.Opts.Engine) {
		return "", fmt.Errorf("sweep: %s does not honor engine %q (declared: %v)",
			c.ID, c.Opts.Engine, sp.Engines)
	}
	// "" and "statevector" are the same configuration; normalize so the
	// two spellings share one cache artifact instead of double-computing.
	engine := c.Opts.Engine
	if engine == exec.EngineStatevector {
		engine = ""
	}
	return store.Fingerprint(descriptor{
		Rev:        descriptorRev,
		ID:         sp.ID,
		Title:      sp.Title,
		Paper:      sp.Paper,
		Strategies: sp.Strategies,
		Axes:       sp.Axes,
		Seed:       c.Opts.Seed,
		Shots:      c.Opts.Shots,
		Instances:  c.Opts.Instances,
		MaxDepth:   maxDepth,
		Fast:       c.Opts.Fast,
		Backend:    c.Opts.Backend,
		Engine:     engine,
	})
}

// Cache is the compute-or-cached layer over the result store. The zero
// Compute means experiments.Run. Concurrent requests for the same key are
// coalesced: one caller computes, the rest wait and share its result.
type Cache struct {
	Store   *store.Store
	Compute Compute

	mu       sync.Mutex
	inflight map[store.Key]*flight
}

// flight is one in-progress computation other requests can wait on.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// NewCache returns a cache computing through experiments.Run.
func NewCache(st *store.Store) *Cache { return &Cache{Store: st} }

// Figure returns the JSON-encoded figure for the cell, serving it from the
// store when present and computing + checkpointing it otherwise (see Do).
func (c *Cache) Figure(cell Cell) (data []byte, hit bool, err error) {
	key, err := cell.Key()
	if err != nil {
		return nil, false, err
	}
	return c.Do(key, func() ([]byte, error) {
		compute := c.Compute
		if compute == nil {
			compute = c.runResolved
		}
		fig, err := compute(cell.ID, cell.Opts)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", cell.ID, err)
		}
		data, err := json.Marshal(fig)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: encode: %w", cell.ID, err)
		}
		return data, nil
	})
}

// Do returns the bytes stored under key, or runs compute and stores its
// bytes under key. The returned bytes on a hit are the exact bytes stored
// by the miss that produced them. Only one computation per key runs at a
// time; callers that join an in-flight computation share its bytes or
// its error and report a hit (they did no work). Errors are not stored.
func (c *Cache) Do(key store.Key, compute func() ([]byte, error)) (data []byte, hit bool, err error) {
	if data, ok, err := c.Store.Get(key); err != nil {
		return nil, false, err
	} else if ok {
		return data, true, nil
	}

	c.mu.Lock()
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		return f.data, true, nil
	}
	f := &flight{done: make(chan struct{})}
	if c.inflight == nil {
		c.inflight = map[store.Key]*flight{}
	}
	c.inflight[key] = f
	c.mu.Unlock()
	defer func() {
		f.data, f.err = data, err
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
	}()

	if data, err = compute(); err != nil {
		return nil, false, err
	}
	if err := c.Store.Put(key, data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}

// runResolved is the default compute: experiments.Run, except that a
// spec declaring DerivesFrom resolves its base figure through this cache
// first — so deriving fig7d reuses a checkpointed fig7c (and checkpoints
// it on a miss) instead of re-running the whole base simulation.
func (c *Cache) runResolved(id string, opts experiments.Options) (experiments.Figure, error) {
	sp, ok := experiments.Lookup(id)
	if !ok || sp.DerivesFrom == "" {
		return experiments.Run(id, opts)
	}
	baseData, _, err := c.Figure(Cell{ID: sp.DerivesFrom, Opts: opts})
	if err != nil {
		return experiments.Figure{}, err
	}
	var base experiments.Figure
	if err := json.Unmarshal(baseData, &base); err != nil {
		return experiments.Figure{}, fmt.Errorf("decode cached %s: %w", sp.DerivesFrom, err)
	}
	return sp.Derive(sp, base, opts)
}

// Grid declares the option axes of a sweep. Empty axes inherit the base
// options' value, so the zero Grid sweeps exactly the base configuration.
type Grid struct {
	Seeds     []int64 `json:"seeds,omitempty"`
	Shots     []int   `json:"shots,omitempty"`
	Instances []int   `json:"instances,omitempty"`
	MaxDepths []int   `json:"max_depths,omitempty"`
	// Backends sweeps the registry-backend axis; every listed experiment
	// must declare each backend in its Spec.Backends ("" = the default
	// device, always allowed).
	Backends []string `json:"backends,omitempty"`
	// Engines sweeps the simulation-engine axis ("statevector", "stab",
	// "auto"; "" = statevector). A statevector-vs-stab sweep of one figure
	// is the service-level differential test.
	Engines []string `json:"engines,omitempty"`
}

// Spec is a sweep request: which experiments, over which option grid,
// starting from which base options.
type Spec struct {
	// IDs lists experiment ids; empty means the whole catalog.
	IDs  []string `json:"ids,omitempty"`
	Grid Grid     `json:"grid"`
	// Base supplies the option values of un-swept axes. Zero fields mean
	// "use the default" (the HTTP layer fills them); to sweep a literal
	// zero — e.g. seed 0 — put it on the corresponding Grid axis, which
	// is always honored verbatim.
	Base experiments.Options `json:"base"`
	// Fast switches the reduced axes (and is part of each cell's cache
	// identity).
	Fast bool `json:"fast,omitempty"`
}

// maxCells bounds one sweep's expansion, over 900× the whole catalog at a
// single grid point. Without it a POST body of a few hundred bytes could
// ask for millions of cells, allocated before any of them runs.
const maxCells = 1 << 14

// Cells expands the spec into the cartesian product id × seed × shots ×
// instances × max-depth × backend × engine, in deterministic order (ids
// outermost, then the grid axes in declaration order). A product above
// maxCells is rejected before anything is allocated for it.
func (s Spec) Cells() ([]Cell, error) {
	ids := s.IDs
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	seeds := s.Grid.Seeds
	if len(seeds) == 0 {
		seeds = []int64{s.Base.Seed}
	}
	shots := s.Grid.Shots
	if len(shots) == 0 {
		shots = []int{s.Base.Shots}
	}
	instances := s.Grid.Instances
	if len(instances) == 0 {
		instances = []int{s.Base.Instances}
	}
	maxDepths := s.Grid.MaxDepths
	if len(maxDepths) == 0 {
		maxDepths = []int{s.Base.MaxDepth}
	}
	backends := s.Grid.Backends
	if len(backends) == 0 {
		backends = []string{s.Base.Backend}
	}
	engines := s.Grid.Engines
	if len(engines) == 0 {
		engines = []string{s.Base.Engine}
	}
	n := len(ids)
	for _, axis := range []int{len(seeds), len(shots), len(instances), len(maxDepths), len(backends), len(engines)} {
		if n > maxCells/axis { // n*axis > maxCells, tested without overflowing
			return nil, fmt.Errorf("sweep: spec expands to more than %d cells", maxCells)
		}
		n *= axis
	}
	for _, id := range ids {
		if _, ok := experiments.Lookup(id); !ok {
			return nil, fmt.Errorf("sweep: unknown experiment %q", id)
		}
	}
	for _, b := range backends {
		for _, id := range ids {
			sp, _ := experiments.Lookup(id)
			if !sp.SupportsBackend(b) {
				return nil, fmt.Errorf("sweep: %s does not support backend %q (declared: %v)", id, b, sp.Backends)
			}
		}
	}
	for _, e := range engines {
		if !exec.ValidEngine(e) {
			return nil, fmt.Errorf("sweep: unknown engine %q (known: %v)", e, exec.EngineNames())
		}
		for _, id := range ids {
			sp, _ := experiments.Lookup(id)
			if !sp.SupportsEngine(e) {
				return nil, fmt.Errorf("sweep: %s does not honor engine %q (declared: %v)", id, e, sp.Engines)
			}
		}
	}
	cells := make([]Cell, 0, n)
	for _, id := range ids {
		for _, seed := range seeds {
			for _, sh := range shots {
				for _, inst := range instances {
					for _, md := range maxDepths {
						for _, b := range backends {
							for _, eng := range engines {
								opts := s.Base
								opts.Seed = seed
								opts.Shots = sh
								opts.Instances = inst
								opts.MaxDepth = md
								opts.Backend = b
								opts.Engine = eng
								opts.Fast = s.Fast || s.Base.Fast
								cells = append(cells, Cell{ID: id, Opts: opts})
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// CellState is the lifecycle of one cell within a Run.
type CellState string

const (
	CellPending  CellState = "pending"
	CellLeased   CellState = "leased"   // claimed by a fabric worker, not yet reported
	CellCached   CellState = "cached"   // answered from the store
	CellComputed CellState = "computed" // freshly computed and checkpointed
	CellFailed   CellState = "failed"
	CellSkipped  CellState = "skipped" // sweep interrupted before the cell ran
)

// terminal reports whether a cell in this state is finished for good.
func (st CellState) terminal() bool { return st != CellPending && st != CellLeased }

// Outcome maps one Cache.Figure result to the cell's terminal state and
// failure message. The in-process Runner and the fabric Worker both report
// through it.
func Outcome(hit bool, err error) (CellState, string) {
	switch {
	case err != nil:
		return CellFailed, err.Error()
	case hit:
		return CellCached, ""
	}
	return CellComputed, ""
}

// Progress is a snapshot of a running or finished sweep. In-process runs
// and fabric sweeps report it alike; only the fabric leases cells.
type Progress struct {
	Total    int  `json:"total"`
	Done     int  `json:"done"` // cached + computed
	Cached   int  `json:"cached"`
	Computed int  `json:"computed"`
	Failed   int  `json:"failed"`
	Skipped  int  `json:"skipped"`
	Leased   int  `json:"leased,omitempty"` // fabric cells out on a worker lease
	Finished bool `json:"finished"`
	// Err is the first failure message, if any.
	Err string `json:"err,omitempty"`
}

// Run is one sweep execution: the per-cell lifecycle shared by the
// in-process Runner and the fabric coordinator. Whoever schedules the
// cells moves them through Set; the run finishes itself — closing Done
// and stamping FinishedAt — when its last cell becomes terminal.
type Run struct {
	cells   []Cell
	traceID uint64

	mu         sync.Mutex
	states     []CellState
	remaining  int           // cells not yet terminal
	first      string        // first failure message
	finishedAt time.Time     // zero while cells remain
	watch      chan struct{} // closed and replaced on every state change
	done       chan struct{}
}

// NewRun returns a run over cells, all pending, under a fresh trace id,
// and counts it on casq_sweep_runs_total. A run without cells is finished
// from the start.
func NewRun(cells []Cell) *Run {
	r := &Run{
		cells:     cells,
		traceID:   obs.NextTraceID(),
		states:    make([]CellState, len(cells)),
		remaining: len(cells),
		watch:     make(chan struct{}),
		done:      make(chan struct{}),
	}
	for i := range r.states {
		r.states[i] = CellPending
	}
	if len(cells) == 0 {
		r.finishedAt = time.Now()
		close(r.done)
	}
	mRuns.Inc()
	return r
}

// Cells returns the run's expanded cells (shared slice; read-only).
func (r *Run) Cells() []Cell { return r.cells }

// TraceID returns the run's trace identity: every cell span recorded for
// the run carries it — fabric workers receive it in each claim — and the
// serve layer echoes it in SSE progress events so a client can correlate
// a sweep with its trace.
func (r *Run) TraceID() uint64 { return r.traceID }

// Done returns a channel closed when every cell has reached a terminal
// state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Wait blocks until the run finishes and returns its final progress.
func (r *Run) Wait() Progress {
	<-r.done
	return r.Progress()
}

// FinishedAt returns when the last cell became terminal; it is zero while
// the run is still active.
func (r *Run) FinishedAt() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.finishedAt
}

// Changed returns a channel closed on the next state change (including
// the final transition to finished). To watch a run without missing
// updates, fetch the channel before snapshotting Progress, then wait on
// it: any change after the snapshot closes the returned channel. This is
// what the serve layer's SSE endpoint polls.
func (r *Run) Changed() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.watch
}

// Progress returns a consistent snapshot of the run.
func (r *Run) Progress() Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := Progress{Total: len(r.cells), Finished: r.remaining == 0, Err: r.first}
	for _, st := range r.states {
		switch st {
		case CellCached:
			p.Cached++
		case CellComputed:
			p.Computed++
		case CellFailed:
			p.Failed++
		case CellSkipped:
			p.Skipped++
		case CellLeased:
			p.Leased++
		}
	}
	p.Done = p.Cached + p.Computed
	return p
}

// States returns a copy of the per-cell states, index-aligned with Cells.
func (r *Run) States() []CellState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.states)
}

// Set moves cell i to st and wakes every Changed waiter. A failed cell's
// msg becomes the run's Err unless an earlier failure set it. Cells go
// pending → (leased →) terminal, and leased → pending when a fabric lease
// expires; a terminal cell is never Set again. The transition that makes
// the last cell terminal closes Done before it wakes the watchers, so a
// woken watcher observes Finished. Every state but pending is counted on
// casq_sweep_cells_total.
func (r *Run) Set(i int, st CellState, msg string) {
	r.mu.Lock()
	if st.terminal() && !r.states[i].terminal() {
		r.remaining--
		if r.remaining == 0 {
			r.finishedAt = time.Now()
			close(r.done)
		}
	}
	r.states[i] = st
	if st == CellFailed && r.first == "" {
		r.first = msg
	}
	close(r.watch)
	r.watch = make(chan struct{})
	r.mu.Unlock()
	if st != CellPending {
		mCells.With(string(st)).Inc()
	}
}

// Runner schedules sweeps through a cache with bounded concurrency.
type Runner struct {
	Cache *Cache
	// Workers is the sweep's total parallelism budget; 0 means GOMAXPROCS.
	// Like the executor's unified budget, it is split between cell-level
	// fan-out and each cell's own executor: a wide sweep runs many cells
	// whose Options.Workers default to 1, a narrow sweep hands the spare
	// budget to each cell's executor. An explicit cell Options.Workers is
	// respected (it never changes results — only parallelism).
	Workers int
	// Tracer records one span per cell (lane = sweep worker index), all
	// stamped with the run's TraceID, and is threaded into each cell's
	// Options so compile-pass and engine spans nest under it. Nil (the
	// default) disables tracing at zero cost.
	Tracer *obs.Tracer
}

// Start expands the spec and launches its cells in the background,
// returning the Run handle immediately. Cells whose results are already
// checkpointed in the store are marked cached without recomputation —
// restarting an interrupted sweep therefore resumes where it stopped.
// Cancelling ctx stops claiming new cells; cells never started are marked
// skipped.
func (r *Runner) Start(ctx context.Context, spec Spec) (*Run, error) {
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	run := NewRun(cells)
	// Split one parallelism budget between cell fan-out and each cell's
	// executor (mirroring exec's unified worker budget): running
	// GOMAXPROCS cells that each default to GOMAXPROCS simulator workers
	// would oversubscribe the machine quadratically.
	budget := r.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	workers := min(budget, len(cells))
	perCell := max(1, budget/max(1, workers))

	indices := make(chan int, len(cells))
	for i := range cells {
		indices <- i
	}
	close(indices)
	for lane := 1; lane <= workers; lane++ {
		go func() {
			for i := range indices {
				if ctx.Err() != nil {
					run.Set(i, CellSkipped, "")
					continue
				}
				cell := cells[i]
				if cell.Opts.Workers == 0 {
					cell.Opts.Workers = perCell
				}
				var sp obs.Span
				if r.Tracer.Enabled() {
					sp = r.Tracer.Start("sweep.cell:" + cell.ID).WithLane(lane).WithTrace(run.traceID)
					if cell.Opts.Tracer == nil {
						cell.Opts.Tracer = r.Tracer
					}
				}
				_, hit, err := r.Cache.Figure(cell)
				sp.End()
				st, msg := Outcome(hit, err)
				run.Set(i, st, msg)
			}
		}()
	}
	return run, nil
}
