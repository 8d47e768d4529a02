package experiments

// figC1/figC2 are the error-correlation spectroscopy companions (appendix-
// style figures, not in the paper's numbering): they estimate the full
// two-point correlation matrix of outcome flips under the six compilation
// strategies, directly exposing the correlated-error structure (always-on
// ZZ between idle neighbors) that the paper's context-aware passes target.
// figC1 bins pair correlations by coupling-graph distance — correlated ZZ
// flips live at distance 1 and decay away — and figC2 scans the idle window
// tau, showing where twirling converts coherent crosstalk into stochastic
// but still *correlated* flips, and where CA-DD/CA-EC remove even those.

import (
	"context"
	"fmt"
	"math"

	"casq/internal/circuit"
	"casq/internal/correl"
	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/exec"
	"casq/internal/gates"
	"casq/internal/pass"
	"casq/internal/sim"
	"casq/internal/twirl"
)

// correlStrategies are the six paper strategies the spectroscopy figures
// compare, in the catalog's declared order.
func correlStrategies() []pass.Pipeline {
	return []pass.Pipeline{
		pass.Bare(),
		pass.Twirled(),
		pass.WithDD(dd.Aligned),
		pass.WithDD(dd.Staggered),
		pass.CADD(),
		pass.CAEC(),
	}
}

// correlStrategy returns the named spectroscopy strategy ("" =
// twirled), or an error naming the known strategies.
func correlStrategy(name string) (pass.Pipeline, error) {
	if name == "" {
		name = "twirled"
	}
	for _, pl := range correlStrategies() {
		if pl.Name == name {
			return pl, nil
		}
	}
	return pass.Pipeline{}, fmt.Errorf("experiments: unknown correlation strategy %q (known: %v)", name, correlStrategyNames)
}

// correlDevice builds the experiment's device: the named registry backend,
// or the built-in 6-qubit line in the paper's strong-crosstalk regime
// (matching fig8's noisier calibration so distance-1 correlations sit well
// above the statistical floor at modest shot budgets).
func correlDevice(backend string) (*device.Device, error) {
	if backend != "" {
		return device.NewBackend(backend)
	}
	devOpts := device.DefaultOptions()
	devOpts.Seed = 53
	devOpts.ZZMin, devOpts.ZZMax = 90e3, 160e3
	return device.NewLine("correl6", 6, devOpts), nil
}

// spectroscopyCircuit is the full-device Ramsey probe: H on every qubit,
// depth idle windows of tau ns, H back, measure all. Ideally it is the
// identity on |0...n>, so every recorded 1 is an error flip and the packed
// outcome planes feed correl.Estimate directly. During the idle windows
// every qubit sits in superposition, so always-on ZZ between neighbors
// accumulates correlated phase that the closing H converts into correlated
// bit flips — the two-point structure the estimator measures.
func spectroscopyCircuit(n, depth int, tau float64) *circuit.Circuit {
	c := circuit.New(n, n)
	open := c.AddLayer(circuit.OneQubitLayer)
	for q := 0; q < n; q++ {
		open.H(q)
	}
	for d := 0; d < depth; d++ {
		l := c.AddLayer(circuit.TwoQubitLayer)
		for q := 0; q < n; q++ {
			l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{q}, Params: []float64{tau}})
		}
	}
	closeL := c.AddLayer(circuit.OneQubitLayer)
	for q := 0; q < n; q++ {
		closeL.H(q)
	}
	meas := c.AddLayer(circuit.MeasureLayer)
	for q := 0; q < n; q++ {
		meas.Measure(q, q)
	}
	return c
}

// correlEngine resolves the effective engine of a spectroscopy run: beyond
// the statevector limit the default is the stabilizer engine outright —
// not auto dispatch, because the bare (untwirled) strategy is part of the
// comparison and auto would refuse to route it to stab.
func correlEngine(engine string, dev *device.Device) string {
	if engine == "" && dev.NQubits > sim.MaxQubits {
		return exec.EngineStab
	}
	return engine
}

// correlMatrix runs the spectroscopy circuit under one strategy, with
// every qubit twirled (the probe idles all of them), and
// estimates the flip-correlation matrix from the packed outcome planes.
// Readout assignment errors are disabled: they are independent per qubit
// by construction, so they only dilute the circuit-error correlations the
// figure is after. Bit-plane engines hand their planes straight to the
// estimator; the statevector kernel's counts map is expanded through
// correl.PackedFromCounts.
func correlMatrix(dev *device.Device, pl pass.Pipeline, depth int, tau float64, opts Options) (correl.Matrix, error) {
	c := spectroscopyCircuit(dev.NQubits, depth, tau)
	cfg := sim.DefaultConfig()
	cfg.Shots = opts.Shots
	cfg.Seed = opts.Seed + int64(depth*131) + int64(tau)
	cfg.EnableReadoutErr = false
	ex := exec.New(dev, pl.WithTwirlScope(twirl.AllQubits))
	res, err := ex.Run(context.Background(), exec.Job{Circuit: c, Opts: exec.RunOptions{
		Instances: opts.Instances,
		Workers:   opts.Workers,
		Seed:      opts.Seed + int64(depth*977) + int64(tau)*3,
		Cfg:       cfg,
		Engine:    correlEngine(opts.Engine, dev),
		Tracer:    opts.Tracer,
	}})
	if err != nil {
		return correl.Matrix{}, fmt.Errorf("correl/%s: %w", pl.Name, err)
	}
	if res.Packed != nil {
		return correl.Estimate(*res.Packed), nil
	}
	return correl.Estimate(correl.PackedFromCounts(res.Counts, dev.NQubits)), nil
}

// correlThreshold is the sparse-reporting floor: 5/sqrt(shots), the
// 5-sigma scale of a correlation estimate's shot noise.
func correlThreshold(shots int) float64 {
	if shots <= 0 {
		return 0
	}
	return 5.0 / math.Sqrt(float64(shots))
}

// FigC1Decay produces the correlation-decay figure: mean |corr| per
// coupling-graph distance, one series per strategy, plus the strongest
// pairs of each strategy's sparse matrix in the notes. The depth axis is a
// single declared point (the estimator wants one deep idle window, not a
// sweep); tau is fixed at 600 ns.
func FigC1Decay(sp Spec, opts Options) (Figure, error) {
	fig := Figure{ID: sp.ID, Title: sp.Title, XLabel: "distance", YLabel: "mean|corr|"}
	dev, err := correlDevice(opts.Backend)
	if err != nil {
		return fig, err
	}
	depth := 4
	if ds := sp.Depths(opts); len(ds) > 0 {
		depth = ds[0]
	}
	const tau = 600.0
	dist := dev.HopDistances()
	thr := correlThreshold(opts.Shots)
	fig.Notef("device %s: %d qubits, %d pairs, depth %d, tau %.0f ns, engine %s, sparse threshold |corr|>=%.4f",
		devName(dev, opts.Backend), dev.NQubits, correl.Pairs(dev.NQubits), depth, tau,
		effectiveEngineName(correlEngine(opts.Engine, dev)), thr)
	for _, pl := range correlStrategies() {
		m, err := correlMatrix(dev, pl, depth, tau, opts)
		if err != nil {
			return fig, err
		}
		bins := correl.DecayByDistance(m, dist, 8)
		xs := make([]float64, len(bins))
		ys := make([]float64, len(bins))
		for i, b := range bins {
			xs[i] = float64(b.Distance)
			ys[i] = b.MeanAbsCorr
		}
		fig.AddSeries(pl.Name, xs, ys)
		sparse := m.Sparse(thr)
		note := fmt.Sprintf("%-12s %d/%d pairs above threshold", pl.Name, len(sparse), correl.Pairs(m.N))
		if len(sparse) > 0 {
			top := sparse[0]
			note += fmt.Sprintf(", strongest (%d,%d) corr=%+.4f±%.4f", top.I, top.J, top.Corr, top.SE)
		}
		fig.Notes = append(fig.Notes, note)
	}
	return fig, nil
}

// FigC2TauScan produces the correlation-vs-tau figure: the mean
// distance-1 (nearest-neighbor) |corr| as the idle window tau grows, one
// series per strategy. Longer windows accumulate more ZZ phase, so bare
// and twirled curves rise with tau while CA-DD refocuses the coupling and
// CA-EC compensates it.
func FigC2TauScan(sp Spec, opts Options) (Figure, error) {
	fig := Figure{ID: sp.ID, Title: sp.Title, XLabel: "tau_ns", YLabel: "mean|corr| @ d=1"}
	dev, err := correlDevice(opts.Backend)
	if err != nil {
		return fig, err
	}
	taus := sp.AxisValues("tau_ns", opts)
	dist := dev.HopDistances()
	fig.Notef("device %s: %d qubits, single idle window per point, engine %s",
		devName(dev, opts.Backend), dev.NQubits, effectiveEngineName(correlEngine(opts.Engine, dev)))
	for _, pl := range correlStrategies() {
		xs := make([]float64, 0, len(taus))
		ys := make([]float64, 0, len(taus))
		for _, tau := range taus {
			m, err := correlMatrix(dev, pl, 1, tau, opts)
			if err != nil {
				return fig, err
			}
			nn := 0.0
			for _, b := range correl.DecayByDistance(m, dist, 1) {
				if b.Distance == 1 {
					nn = b.MeanAbsCorr
				}
			}
			xs = append(xs, tau)
			ys = append(ys, nn)
		}
		fig.AddSeries(pl.Name, xs, ys)
	}
	return fig, nil
}

func devName(dev *device.Device, backend string) string {
	if backend != "" {
		return backend
	}
	return dev.Name
}

func effectiveEngineName(engine string) string {
	if engine == "" {
		return exec.EngineStatevector
	}
	return engine
}

// CorrelationReport is the JSON payload of the serve layer's
// GET /backends/{id}/correlations diagnostic: the thresholded sparse
// correlation matrix of one spectroscopy run on the named backend.
type CorrelationReport struct {
	Backend   string  `json:"backend"`
	Strategy  string  `json:"strategy"`
	Engine    string  `json:"engine"`
	NQubits   int     `json:"n_qubits"`
	Shots     int     `json:"shots"`
	Instances int     `json:"instances"`
	Seed      int64   `json:"seed"`
	Depth     int     `json:"depth"`
	TauNs     float64 `json:"tau_ns"`
	// Threshold is the sparse floor applied to Pairs (5/sqrt(shots)).
	Threshold float64           `json:"threshold"`
	FlipRates []float64         `json:"flip_rates"`
	Pairs     []correl.PairStat `json:"pairs"`
	Decay     []correl.DecayBin `json:"decay"`
	// MeanAbsNN is the mean |corr| over coupling-graph distance-1 pairs —
	// the headline number of figC2.
	MeanAbsNN float64 `json:"mean_abs_nn"`
}

// CorrelationDiagnostic runs one spectroscopy point on a registry backend
// under a named strategy ("" = twirled) and returns the thresholded
// correlation report. It is the computation behind the serve layer's
// correlations endpoint; depth and tau are fixed to the figC1 defaults so
// the report is a device diagnostic, not a parameter sweep.
func CorrelationDiagnostic(backend, strategy string, opts Options) (CorrelationReport, error) {
	if err := checkCounts(opts); err != nil {
		return CorrelationReport{}, fmt.Errorf("correlations: %w", err)
	}
	pl, err := correlStrategy(strategy)
	if err != nil {
		return CorrelationReport{}, err
	}
	dev, err := correlDevice(backend)
	if err != nil {
		return CorrelationReport{}, err
	}
	const (
		depth = 4
		tau   = 600.0
	)
	m, err := correlMatrix(dev, pl, depth, tau, opts)
	if err != nil {
		return CorrelationReport{}, err
	}
	dist := dev.HopDistances()
	thr := correlThreshold(m.Shots)
	rep := CorrelationReport{
		Backend:   backend,
		Strategy:  pl.Name,
		Engine:    effectiveEngineName(correlEngine(opts.Engine, dev)),
		NQubits:   m.N,
		Shots:     m.Shots,
		Instances: opts.Instances,
		Seed:      opts.Seed,
		Depth:     depth,
		TauNs:     tau,
		Threshold: thr,
		FlipRates: m.P,
		Pairs:     m.Sparse(thr),
		Decay:     correl.DecayByDistance(m, dist, 8),
	}
	for _, b := range rep.Decay {
		if b.Distance == 1 {
			rep.MeanAbsNN = b.MeanAbsCorr
		}
	}
	if rep.Pairs == nil {
		rep.Pairs = []correl.PairStat{}
	}
	if rep.Decay == nil {
		rep.Decay = []correl.DecayBin{}
	}
	return rep, nil
}
