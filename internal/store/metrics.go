package store

import (
	"time"

	"casq/internal/obs"
)

// Process-wide store metrics on the obs default registry. Every Store
// in the process feeds the same families, and they are the only count
// of these events: Stats reads the counters back for /healthz, and
// `casq serve` exposes them on GET /metrics. Children are resolved once
// here so the Get/Put hot paths pay only an atomic add plus a bucket
// search.
var (
	mHits      = obs.Default().Counter("casq_store_hits_total", "Store lookups answered from the memory or backend tier.")
	mMisses    = obs.Default().Counter("casq_store_misses_total", "Store lookups that found nothing in any tier.")
	mPuts      = obs.Default().Counter("casq_store_puts_total", "Accepted store writes across all tiers.")
	mEvictions = obs.Default().Counter("casq_store_evictions_total", "Memory-tier LRU evictions.")

	mGetSeconds = obs.Default().HistogramVec("casq_store_get_seconds",
		"Store lookup latency by result (hit or miss).", "result", nil)
	mGetHit     = mGetSeconds.With("hit")
	mGetMiss    = mGetSeconds.With("miss")
	mPutSeconds = obs.Default().Histogram("casq_store_put_seconds",
		"Store write latency (backend write included when present).", nil)
)

// observeGet records one lookup's outcome and latency.
func observeGet(start time.Time, hit bool) {
	d := time.Since(start).Seconds()
	if hit {
		mHits.Inc()
		mGetHit.Observe(d)
	} else {
		mMisses.Inc()
		mGetMiss.Observe(d)
	}
}
