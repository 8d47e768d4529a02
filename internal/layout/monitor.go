package layout

import (
	"fmt"
	"sync"

	"casq/internal/circuit"
	"casq/internal/device"
)

// DefaultRecompileThreshold is the exact-score ratio over the deployed
// baseline past which a drifted placement is recompiled.
const DefaultRecompileThreshold = 1.25

// MonitorOptions tune the drift monitor.
type MonitorOptions struct {
	// Threshold triggers recompilation when the drifted exact score
	// exceeds Threshold times the deployed baseline (0 =
	// DefaultRecompileThreshold). Must end up > 1.
	Threshold float64
	// Gate is the surrogate-predicted ratio above which the monitor pays
	// for an exact re-score (0 = 0.9*Threshold). Below it the drift event
	// is absorbed with one feature evaluation and one dot product.
	Gate float64
	// Search configures the initial compile and every recompilation.
	Search Options
}

func (o MonitorOptions) withDefaults() MonitorOptions {
	if o.Threshold <= 1 {
		o.Threshold = DefaultRecompileThreshold
	}
	if o.Gate <= 0 {
		o.Gate = 0.9 * o.Threshold
	}
	return o
}

// MonitorStats counts what the monitor has done — the observability
// surface of the recompilation service.
type MonitorStats struct {
	// Drifts counts calibration perturbations applied.
	Drifts int `json:"drifts"`
	// SurrogateChecks counts drift events evaluated by the surrogate.
	SurrogateChecks int `json:"surrogate_checks"`
	// ExactChecks counts drift events that escalated to an exact re-score.
	ExactChecks int `json:"exact_checks"`
	// Recompiles counts full layout searches triggered by drift.
	Recompiles int `json:"recompiles"`
	// LastRatio is the most recent score-over-baseline ratio observed
	// (surrogate or exact, whichever decided).
	LastRatio float64 `json:"last_ratio"`
	// BaselineScore is the deployed placement's exact score at its compile.
	BaselineScore float64 `json:"baseline_score"`
}

// Decision is the outcome of one drift observation.
type Decision struct {
	// SurrogateRatio is predicted-score/baseline from the fitted model
	// (0 when the search had no model and the check went straight to exact).
	SurrogateRatio float64 `json:"surrogate_ratio"`
	// ExactChecked reports whether the full re-score ran.
	ExactChecked bool `json:"exact_checked"`
	// ExactRatio is exact-score/baseline when ExactChecked.
	ExactRatio float64 `json:"exact_ratio,omitempty"`
	// Recompiled reports whether a full layout search replaced the
	// deployed placement.
	Recompiled bool `json:"recompiled"`
	// Score is the current best estimate of the deployed placement's exact
	// score: the surrogate prediction on the cheap path, the exact score
	// otherwise (the new placement's after a recompile).
	Score float64 `json:"score"`
	// Region is the deployed physical region after the decision.
	Region []int `json:"region"`
}

// Monitor keeps one compiled placement honest against calibration drift:
// each Drift perturbs the calibration (device.Perturb), re-estimates the
// deployed placement's error — surrogate first, exact only past the gate —
// and recompiles only when the exact score has truly risen past the
// threshold. This is the amortization loop of the recompilation service: a
// fleet's calibration drifts continuously, full searches are expensive, and
// most drift events resolve in one dot product.
type Monitor struct {
	mu       sync.Mutex
	opts     MonitorOptions
	probe    *circuit.Circuit
	ia       []igEdge
	dev      *device.Device // current (drifted) calibration
	pl       *Placement
	rep      *SearchReport
	baseline float64
	stats    MonitorStats
}

// NewMonitor compiles the probe onto the backend and starts monitoring the
// chosen placement.
func NewMonitor(dev *device.Device, probe *circuit.Circuit, opts MonitorOptions) (*Monitor, error) {
	opts = opts.withDefaults()
	pl, rep, err := ChooseWith(dev, probe, opts.Search)
	if err != nil {
		return nil, err
	}
	if pl.Score <= 0 {
		return nil, fmt.Errorf("layout: monitor needs a probe with nonzero predicted error on %s", dev.Name)
	}
	return &Monitor{
		opts:     opts,
		probe:    probe,
		ia:       interactionEdges(interactionGraph(probe)),
		dev:      dev,
		pl:       pl,
		rep:      rep,
		baseline: pl.Score,
		stats:    MonitorStats{BaselineScore: pl.Score},
	}, nil
}

// Placement returns the currently deployed placement.
func (m *Monitor) Placement() *Placement {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pl
}

// Report returns the telemetry of the most recent search (initial compile
// or last recompile).
func (m *Monitor) Report() *SearchReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rep
}

// Threshold returns the configured recompile threshold.
func (m *Monitor) Threshold() float64 { return m.opts.Threshold }

// Stats returns a snapshot of the monitor counters.
func (m *Monitor) Stats() MonitorStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Drift perturbs the current calibration by device.Perturb(seed, drift) —
// compounding on top of earlier drifts, as a real calibration does — and
// decides whether the deployed placement survives it.
func (m *Monitor) Drift(seed int64, drift float64) (*Decision, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dev = m.dev.Perturb(seed, drift)
	m.stats.Drifts++
	return m.decideLocked()
}

// decideLocked runs the surrogate gate, the exact check, and the recompile
// escalation against the current calibration. Callers hold m.mu.
func (m *Monitor) decideLocked() (*Decision, error) {
	d := &Decision{Region: m.pl.Region}
	if model := m.rep.Model; model != nil {
		// Cheap tier: re-extract the region's features from the drifted
		// calibration and ask the model fitted at compile time. The
		// feature-to-score map is what the model learned; drift moves the
		// features, so the prediction tracks the drifted score.
		sctx := newStaticContext(m.dev)
		pred := model.Predict(sctx.evaluate(m.pl.Phys, m.ia).feats)
		d.SurrogateRatio = pred / m.baseline
		m.stats.SurrogateChecks++
		if d.SurrogateRatio <= m.opts.Gate {
			d.Score = pred
			m.stats.LastRatio = d.SurrogateRatio
			return d, nil
		}
	}
	d.ExactChecked = true
	m.stats.ExactChecks++
	pl, err := Rescore(m.dev, m.probe, m.pl.Phys)
	if err != nil {
		return nil, fmt.Errorf("layout: drift re-score failed: %w", err)
	}
	d.ExactRatio = pl.Score / m.baseline
	m.stats.LastRatio = d.ExactRatio
	if d.ExactRatio <= m.opts.Threshold {
		d.Score = pl.Score
		return d, nil
	}
	npl, nrep, err := ChooseWith(m.dev, m.probe, m.opts.Search)
	if err != nil {
		return nil, fmt.Errorf("layout: drift recompilation failed: %w", err)
	}
	m.pl, m.rep, m.baseline = npl, nrep, npl.Score
	m.stats.BaselineScore = npl.Score
	m.stats.Recompiles++
	d.Recompiled = true
	d.Score = npl.Score
	d.Region = npl.Region
	return d, nil
}
