package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"casq/internal/obs"
	"casq/internal/store"
	"casq/internal/sweep"
)

// DefaultPoll is the idle claim-poll interval when Worker.Poll is zero.
const DefaultPoll = 200 * time.Millisecond

// Worker claims cells from a coordinator, computes them through its
// Cache (whose store should share the coordinator's — NewWorker wires the
// remote HTTP backend), and reports completion. It sends heartbeats while
// a cell computes, so only a genuinely dead or wedged worker loses its
// lease. Run as many workers as you have machines; results are
// bit-identical regardless of which worker computes which cell.
type Worker struct {
	// Coordinator is the coordinator's base URL (e.g. "http://host:8823").
	Coordinator string
	// Cache computes figures and checkpoints them into the shared store.
	Cache *sweep.Cache
	// ID names the worker in coordinator stats; "" derives one from the
	// hostname and pid.
	ID string
	// Slots is the number of cells computed concurrently (0 = 1). Each
	// cell's executor defaults to an equal share of GOMAXPROCS.
	Slots int
	// Poll is the idle claim-poll interval (0 = DefaultPoll).
	Poll time.Duration
	// Client is the HTTP client for coordinator calls (nil =
	// http.DefaultClient).
	Client *http.Client
	// Tracer records one span per processed cell, stamped with the trace
	// id the coordinator assigned to the owning sweep (carried in the
	// claim response), and is threaded into the cell's Options so compile
	// and engine spans nest under it. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
}

// NewWorker returns a worker computing against the coordinator at base,
// sharing the coordinator's store through the remote HTTP backend with a
// local LRU tier of memCapacity entries in front of it.
func NewWorker(base string, memCapacity int) *Worker {
	base = strings.TrimRight(base, "/")
	st := store.OpenWith(store.NewHTTP(base, nil), memCapacity)
	return &Worker{Coordinator: base, Cache: sweep.NewCache(st)}
}

func (w *Worker) id() string {
	if w.ID != "" {
		return w.ID
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return DefaultPoll
}

// Run claims and computes cells until ctx is cancelled, then returns
// ctx.Err(). Claim failures (coordinator restarting, network blips) are
// retried at the poll interval rather than terminating the worker.
func (w *Worker) Run(ctx context.Context) error {
	slots := w.Slots
	if slots <= 0 {
		slots = 1
	}
	perCell := runtime.GOMAXPROCS(0) / slots
	if perCell < 1 {
		perCell = 1
	}
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(ctx, perCell)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

func (w *Worker) loop(ctx context.Context, perCell int) {
	for ctx.Err() == nil {
		job, ok, err := w.claim(ctx)
		if err != nil || !ok {
			select {
			case <-ctx.Done():
				return
			case <-time.After(w.poll()):
			}
			continue
		}
		w.process(ctx, job, perCell)
	}
}

// process computes one claimed cell under a heartbeat. If the completion
// report fails (coordinator unreachable, lease expired), the result is
// already checkpointed in the shared store, so the requeued cell is
// answered from cache by whichever worker claims it next — never
// recomputed, never written twice.
func (w *Worker) process(ctx context.Context, job claimResponse, perCell int) {
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx, job)

	cell := job.Cell
	if cell.Opts.Workers == 0 {
		cell.Opts.Workers = perCell
	}
	var sp obs.Span
	if w.Tracer.Enabled() {
		sp = w.Tracer.StartTrace("fabric.cell:"+cell.ID, job.TraceID)
		cell.Opts.Tracer = w.Tracer
	}
	_, hit, err := w.Cache.Figure(cell)
	sp.End()
	stopHB()
	state, errMsg := sweep.Outcome(hit, err)
	w.complete(job.LeaseID, state, errMsg)
}

// heartbeatLoop extends the lease at a third of its TTL until stopped. A
// 410 means the lease is gone — the cell was requeued — so heartbeating
// stops; the compute still finishes and checkpoints its result.
func (w *Worker) heartbeatLoop(ctx context.Context, job claimResponse) {
	every := time.Duration(job.LeaseTTLMS) * time.Millisecond / 3
	if every < 5*time.Millisecond {
		every = 5 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			status, err := w.post(ctx, "/fabric/heartbeat", heartbeatRequest{LeaseID: job.LeaseID}, nil)
			if err == nil && status == http.StatusGone {
				return
			}
		}
	}
}

func (w *Worker) claim(ctx context.Context) (claimResponse, bool, error) {
	var resp claimResponse
	status, err := w.post(ctx, "/fabric/claim", claimRequest{Worker: w.id()}, &resp)
	if err != nil {
		return resp, false, err
	}
	switch status {
	case http.StatusOK:
		return resp, true, nil
	case http.StatusNoContent:
		return resp, false, nil
	default:
		return resp, false, fmt.Errorf("fabric: claim: unexpected status %d", status)
	}
}

func (w *Worker) complete(leaseID string, st sweep.CellState, errMsg string) {
	// Best-effort: a failed report leaves the lease to expire and the
	// already-stored result to be served from cache on requeue.
	w.post(context.Background(), "/fabric/complete",
		completeRequest{LeaseID: leaseID, State: st, Error: errMsg}, nil)
}

// post sends one JSON request to the coordinator, decoding a 200 body
// into out when non-nil, and returns the HTTP status.
func (w *Worker) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
