package sweep

import "casq/internal/obs"

// Process-wide sweep metrics on the obs default registry, exposed by
// `casq serve` on GET /metrics. Run.Set counts every cell-state
// transition except a requeue to pending, so in-process and fabric cells
// aggregate into one family and a dashboard distinguishes cache hits from
// fresh computes from failures at a glance.
var (
	mRuns  = obs.Default().Counter("casq_sweep_runs_total", "Sweeps started (in-process runs and fabric submissions).")
	mCells = obs.Default().CounterVec("casq_sweep_cells_total", "Sweep cells entering each lifecycle state.", "state")
)
