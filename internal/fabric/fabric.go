// Package fabric shards sweep campaigns across processes and machines.
// A Coordinator turns each submitted sweep.Spec into a queue of cells
// guarded by worker leases: Workers claim cells over HTTP, compute them
// through the shared content-addressed store, and report completion. A
// worker that dies mid-cell simply stops heartbeating — its lease expires
// and the cell is requeued for a survivor. Because every result is
// checkpointed into the store under its content address the moment it is
// computed, a requeued cell whose result already landed is answered from
// the store without recomputation, and the store is never written twice
// for one cell: crash recovery costs at most the one in-flight cell per
// dead worker.
//
// Each submitted sweep is a sweep.Run, the same lifecycle the in-process
// scheduler drives, so the serve layer's progress, listing, and SSE
// endpoints work identically for local and distributed sweeps. Wire
// protocol (all JSON over HTTP, mounted by Handler; a request body over
// MaxRequestBody is a 413):
//
//	POST /fabric/claim      {"worker":id} -> lease + cell, or 204 when idle
//	POST /fabric/heartbeat  {"lease_id":id} extends the lease, 410 if expired
//	POST /fabric/complete   {"lease_id":id,"state":...,"error":...}, 410 if expired
//	GET  /store/{key}       shared store read (see store.Handler)
//	PUT  /store/{key}       shared store write
package fabric

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"casq/internal/store"
	"casq/internal/sweep"
)

// DefaultLeaseTTL is the lease lifetime when Options leave it zero: long
// enough that a healthy worker heartbeating at TTL/3 never expires, short
// enough that a dead worker's cell is requeued promptly.
const DefaultLeaseTTL = 15 * time.Second

// ErrLeaseGone reports a heartbeat or completion for a lease the
// coordinator no longer holds — it expired and the cell was requeued (or
// it never existed). The HTTP layer maps it to 410 Gone.
var ErrLeaseGone = errors.New("fabric: lease expired or unknown")

// workerWindow is how long, in lease TTLs, a worker id counts towards
// Stats.Workers after its last call; the janitor forgets older ids.
const workerWindow = 10

// Options configure a Coordinator.
type Options struct {
	// LeaseTTL is how long a claimed cell may go without a heartbeat
	// before it is requeued (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
}

// Coordinator owns the distributed job queue: sweeps expand into cells,
// cells are leased to workers, and expired leases requeue. It also serves
// the shared store, so workers need exactly one endpoint. Safe for
// concurrent use; create with NewCoordinator and release with Close.
//
// The coordinator moves each run's cells through sweep.Run.Set while it
// holds its own lock, so lock order is coordinator, then run. It keeps no
// reference to a run once its last cell is terminal.
type Coordinator struct {
	st       *store.Store
	leaseTTL time.Duration

	mu      sync.Mutex
	sweeps  int       // runs submitted, for Stats
	queue   []cellRef // pending cells, oldest first
	leases  map[string]*lease
	seq     int64
	workers map[string]time.Time // worker id -> last seen

	closed    chan struct{}
	closeOnce sync.Once
}

// cellRef addresses one cell of one run.
type cellRef struct {
	run *sweep.Run
	idx int
}

// lease is one outstanding claim.
type lease struct {
	ref    cellRef
	worker string
	expiry time.Time
}

// NewCoordinator returns a coordinator scheduling cells against the
// shared store st (which it also serves at /store/{key}).
func NewCoordinator(st *store.Store, opts Options) *Coordinator {
	ttl := opts.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	c := &Coordinator{
		st:       st,
		leaseTTL: ttl,
		leases:   map[string]*lease{},
		workers:  map[string]time.Time{},
		closed:   make(chan struct{}),
	}
	go c.janitor()
	return c
}

// Close stops the lease janitor. Outstanding sweeps stop making progress
// once their workers disconnect; their checkpointed cells remain in the
// store for a later coordinator to resume from.
func (c *Coordinator) Close() { c.closeOnce.Do(func() { close(c.closed) }) }

// janitor ticks even when no worker is polling, so a sweep whose entire
// fleet died still requeues (and a reconnecting fleet resumes it).
func (c *Coordinator) janitor() {
	period := c.leaseTTL / 2
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
			c.tick(time.Now())
		}
	}
}

// tick is one janitor pass: it expires overdue leases and forgets workers
// silent for longer than workerWindow. Forgetting happens here rather than
// in claim, so a claim's cost does not grow with the fleet.
func (c *Coordinator) tick(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	cutoff := now.Add(-workerWindow * c.leaseTTL)
	for id, seen := range c.workers {
		if !seen.After(cutoff) {
			delete(c.workers, id)
		}
	}
}

// Submit expands the spec and enqueues its cells for the worker fleet,
// returning the run the serve layer tracks. Cells enqueue in the spec's
// deterministic expansion order.
func (c *Coordinator) Submit(spec sweep.Spec) (*sweep.Run, error) {
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	run := sweep.NewRun(cells)
	c.mu.Lock()
	c.sweeps++
	for i := range cells {
		c.queue = append(c.queue, cellRef{run: run, idx: i})
	}
	c.mu.Unlock()
	return run, nil
}

// claim hands the oldest pending cell to a worker under a fresh lease,
// along with the owning sweep's trace id (which the worker stamps on its
// spans). The bool is false when no work is available right now.
func (c *Coordinator) claim(worker string, now time.Time) (string, sweep.Cell, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	c.workers[worker] = now
	mClaims.Inc()
	if len(c.queue) == 0 {
		return "", sweep.Cell{}, 0, false
	}
	// Every queued cell is pending: it enters the queue on Submit or on
	// lease expiry and leaves it here. Clearing the slot lets a finished
	// run be collected while the backing array lives on.
	ref := c.queue[0]
	c.queue[0] = cellRef{}
	c.queue = c.queue[1:]
	ref.run.Set(ref.idx, sweep.CellLeased, "")
	c.seq++
	id := fmt.Sprintf("lease-%d", c.seq)
	c.leases[id] = &lease{ref: ref, worker: worker, expiry: now.Add(c.leaseTTL)}
	return id, ref.run.Cells()[ref.idx], ref.run.TraceID(), true
}

// heartbeat extends a lease; ErrLeaseGone means the worker lost it (the
// cell is already requeued) and should abandon reporting for that cell.
func (c *Coordinator) heartbeat(leaseID string, now time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	l, ok := c.leases[leaseID]
	if !ok {
		return ErrLeaseGone
	}
	l.expiry = now.Add(c.leaseTTL)
	c.workers[l.worker] = now
	mHeartbeats.Inc()
	return nil
}

// complete moves a leased cell to its terminal state. Only the current
// lease holder can complete a cell, so every cell reaches a terminal
// state exactly once even when a presumed-dead worker reports late.
func (c *Coordinator) complete(leaseID string, st sweep.CellState, errMsg string, now time.Time) error {
	switch st {
	case sweep.CellCached, sweep.CellComputed, sweep.CellFailed:
	default:
		return fmt.Errorf("fabric: %q is not a terminal cell state", st)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	l, ok := c.leases[leaseID]
	if !ok {
		return ErrLeaseGone
	}
	delete(c.leases, leaseID)
	c.workers[l.worker] = now
	mCompletes.Inc()
	l.ref.run.Set(l.ref.idx, st, errMsg)
	return nil
}

// expireLocked requeues every cell whose lease outlived its TTL — the
// crash-recovery path. Callers hold c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if now.After(l.expiry) {
			delete(c.leases, id)
			l.ref.run.Set(l.ref.idx, sweep.CellPending, "")
			c.queue = append(c.queue, l.ref)
			mExpirations.Inc()
		}
	}
}

// Stats is an observability snapshot of the coordinator (reported on the
// serve layer's /healthz). Sweeps, QueueDepth, Leases and Workers describe
// this coordinator; Claims, Completes, Heartbeats and Expirations are
// process totals, read from the casq_fabric_* counters that every
// coordinator in the process feeds.
type Stats struct {
	Sweeps      int    `json:"sweeps"`
	QueueDepth  int    `json:"queue_depth"`
	Leases      int    `json:"leases"`
	Workers     int    `json:"workers"` // distinct workers seen within workerWindow lease TTLs
	Claims      uint64 `json:"claims"`
	Completes   uint64 `json:"completes"`
	Heartbeats  uint64 `json:"heartbeats"`
	Expirations uint64 `json:"expirations"`
}

// Stats returns a consistent snapshot of the queue and fleet state, with
// the process's job-queue counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := time.Now().Add(-workerWindow * c.leaseTTL)
	workers := 0
	for _, seen := range c.workers {
		if seen.After(cutoff) {
			workers++
		}
	}
	return Stats{
		Sweeps: c.sweeps, QueueDepth: len(c.queue), Leases: len(c.leases), Workers: workers,
		Claims: mClaims.Value(), Completes: mCompletes.Value(),
		Heartbeats: mHeartbeats.Value(), Expirations: mExpirations.Value(),
	}
}

// Handler returns the coordinator's HTTP surface: the worker protocol
// under /fabric/ and the shared store under /store/. The serve layer
// mounts it next to the figure and sweep endpoints.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fabric/claim", c.handleClaim)
	mux.HandleFunc("POST /fabric/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fabric/complete", c.handleComplete)
	mux.Handle("/store/", store.Handler(c.st))
	return mux
}
