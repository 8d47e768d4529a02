package fabric

import "casq/internal/obs"

// Process-wide fabric metrics on the obs default registry. Every
// Coordinator in the process feeds the same families, and they are the
// only count of these events: Stats reads them back for /healthz, and
// `casq serve` exposes them on GET /metrics.
var (
	mClaims      = obs.Default().Counter("casq_fabric_claims_total", "Worker claim calls handled (including empty-queue polls).")
	mCompletes   = obs.Default().Counter("casq_fabric_completes_total", "Cells reported complete by workers.")
	mHeartbeats  = obs.Default().Counter("casq_fabric_heartbeats_total", "Lease heartbeats accepted.")
	mExpirations = obs.Default().Counter("casq_fabric_expirations_total", "Leases expired and requeued (crash recovery).")
)
