package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"casq/internal/device"
	"casq/internal/fabric"
	"casq/internal/layout"
)

// Drift-service bounds: probe workloads are small line circuits (the
// layout stage's cost grows with the backend, not the probe), and drift
// magnitudes beyond 1 would flip calibration rates negative.
const (
	minProbeQubits   = 2
	maxProbeQubits   = 16
	defaultQubits    = 6
	minProbeDepth    = 1
	maxProbeDepth    = 32
	defaultDepth     = 4
	maxDriftMagnit   = 1.0
	defaultDriftMag  = 0.05
	defaultDriftSeed = 1
)

// layoutRecord is one lazily-compiled drift monitor, keyed by
// backend|qubits|depth. The once gate makes concurrent first requests for
// the same key compile exactly one monitor.
type layoutRecord struct {
	once sync.Once
	mon  *layout.Monitor
	err  error
}

// monitorFor returns (compiling on first use) the drift monitor of one
// backend+probe configuration.
func (s *Server) monitorFor(backend string, qubits, depth int) (*layout.Monitor, error) {
	key := fmt.Sprintf("%s|%d|%d", backend, qubits, depth)
	s.layoutMu.Lock()
	rec, ok := s.layouts[key]
	if !ok {
		rec = &layoutRecord{}
		s.layouts[key] = rec
	}
	s.layoutMu.Unlock()
	rec.once.Do(func() {
		dev, err := device.NewBackend(backend)
		if err != nil {
			rec.err = err
			return
		}
		if qubits > dev.NQubits {
			rec.err = fmt.Errorf("probe needs %d qubits, backend %s has %d", qubits, backend, dev.NQubits)
			return
		}
		rec.mon, rec.err = layout.NewMonitor(dev, layout.PathProbe(qubits, depth), layout.MonitorOptions{
			Threshold: s.recompileThreshold,
		})
	})
	return rec.mon, rec.err
}

// layoutParams is the accepted /backends/{id}/layout query vocabulary.
var layoutParams = map[string]bool{"qubits": true, "depth": true}

// probeShape validates the probe dimensions shared by both layout routes.
func probeShape(qubits, depth int) error {
	if qubits < minProbeQubits || qubits > maxProbeQubits {
		return fmt.Errorf("qubits: %d out of range [%d, %d]", qubits, minProbeQubits, maxProbeQubits)
	}
	if depth < minProbeDepth || depth > maxProbeDepth {
		return fmt.Errorf("depth: %d out of range [%d, %d]", depth, minProbeDepth, maxProbeDepth)
	}
	return nil
}

// layoutBody is the GET /backends/{id}/layout response.
type layoutBody struct {
	Backend   string               `json:"backend"`
	Qubits    int                  `json:"qubits"`
	Depth     int                  `json:"depth"`
	Region    []int                `json:"region"`
	Phys      []int                `json:"phys"`
	Score     float64              `json:"score"`
	Threshold float64              `json:"recompile_threshold"`
	Search    *layout.SearchReport `json:"search"`
	Stats     layout.MonitorStats  `json:"stats"`
}

// handleLayout reports (compiling on first request) the deployed placement
// of the standard path probe on one backend: chosen region, exact score,
// search telemetry including the surrogate pruning ratio, and the drift
// monitor's counters.
func (s *Server) handleLayout(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := device.LookupBackend(id); !ok {
		writeError(w, http.StatusNotFound, "unknown backend %q (see /backends)", id)
		return
	}
	q := r.URL.Query()
	for name := range q {
		if !layoutParams[name] {
			writeError(w, http.StatusBadRequest, "unknown parameter %q (known: depth, qubits)", name)
			return
		}
	}
	qubits, depth := defaultQubits, defaultDepth
	for _, p := range []struct {
		name string
		dst  *int
	}{{"qubits", &qubits}, {"depth", &depth}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%s: not an integer: %q", p.name, v)
				return
			}
			*p.dst = n
		}
	}
	if err := probeShape(qubits, depth); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	mon, err := s.monitorFor(id, qubits, depth)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pl := mon.Placement()
	writeJSON(w, http.StatusOK, layoutBody{
		Backend:   id,
		Qubits:    qubits,
		Depth:     depth,
		Region:    pl.Region,
		Phys:      pl.Phys,
		Score:     pl.Score,
		Threshold: mon.Threshold(),
		Search:    mon.Report(),
		Stats:     mon.Stats(),
	})
}

// driftRequest is the POST /backends/{id}/drift body. Probe dimensions
// select which monitor drifts (they default to the GET defaults, so a
// bare body drifts the default probe's monitor).
type driftRequest struct {
	Qubits int     `json:"qubits"`
	Depth  int     `json:"depth"`
	Seed   int64   `json:"seed"`
	Drift  float64 `json:"drift"`
}

// driftBody is the POST /backends/{id}/drift response.
type driftBody struct {
	Backend  string              `json:"backend"`
	Qubits   int                 `json:"qubits"`
	Depth    int                 `json:"depth"`
	Seed     int64               `json:"seed"`
	Drift    float64             `json:"drift"`
	Decision *layout.Decision    `json:"decision"`
	Stats    layout.MonitorStats `json:"stats"`
}

// handleDrift perturbs one monitor's calibration and reports its decision:
// absorbed by the surrogate, exact-checked, or recompiled. This is the
// fleet-amortization loop over HTTP — callers post observed drift and only
// threshold-crossing events pay for a new search.
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := device.LookupBackend(id); !ok {
		writeError(w, http.StatusNotFound, "unknown backend %q (see /backends)", id)
		return
	}
	req := driftRequest{Qubits: defaultQubits, Depth: defaultDepth, Seed: defaultDriftSeed, Drift: defaultDriftMag}
	if status, err := fabric.DecodeRequest(w, r, &req); err != nil {
		writeError(w, status, "decode drift request: %v", err)
		return
	}
	if err := probeShape(req.Qubits, req.Depth); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Drift <= 0 || req.Drift > maxDriftMagnit {
		writeError(w, http.StatusBadRequest, "drift: %v out of range (0, %v]", req.Drift, maxDriftMagnit)
		return
	}
	mon, err := s.monitorFor(id, req.Qubits, req.Depth)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	decision, err := mon.Drift(req.Seed, req.Drift)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, driftBody{
		Backend: id, Qubits: req.Qubits, Depth: req.Depth,
		Seed: req.Seed, Drift: req.Drift,
		Decision: decision, Stats: mon.Stats(),
	})
}

// layoutCounts is the healthz rollup over every live drift monitor.
type layoutCounts struct {
	Monitors   int `json:"monitors"`
	Drifts     int `json:"drifts"`
	Recompiles int `json:"recompiles"`
}

// layoutStats aggregates monitor counters for /healthz.
func (s *Server) layoutStats() layoutCounts {
	s.layoutMu.Lock()
	recs := make([]*layoutRecord, 0, len(s.layouts))
	for _, rec := range s.layouts {
		recs = append(recs, rec)
	}
	s.layoutMu.Unlock()
	var out layoutCounts
	for _, rec := range recs {
		rec.once.Do(func() {}) // synchronize with a first compile in flight
		if rec.mon == nil {
			continue
		}
		st := rec.mon.Stats()
		out.Monitors++
		out.Drifts += st.Drifts
		out.Recompiles += st.Recompiles
	}
	return out
}
