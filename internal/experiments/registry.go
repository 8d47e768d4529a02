package experiments

import (
	"fmt"

	"casq/internal/exec"
	"casq/internal/obs"
)

// Runner regenerates one figure/table. It receives the experiment's own
// Spec so the harness reads its parameter space from the declaration
// rather than hard-coding it.
type Runner func(Spec, Options) (Figure, error)

// Deriver post-processes another experiment's figure into a derived one
// (e.g. fig7d fits overheads from fig7c's curves). Declaring the
// dependency (Spec.DerivesFrom) instead of recomputing the base inside
// the harness lets the caching layer reuse a checkpointed base figure.
type Deriver func(sp Spec, base Figure, opts Options) (Figure, error)

// Axis is one named, ordered parameter dimension of an experiment's
// declared sweep space. Values is the full-quality axis; Fast, when
// non-nil, is the reduced axis selected by Options.Fast.
type Axis struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
	Fast   []float64 `json:"fast,omitempty"`
}

// Spec declares one experiment: its identity, what part of the paper it
// reproduces, the pipeline strategies it exercises, and its parameter
// axes. The sweep scheduler and the HTTP layer enumerate and shard
// experiments from these declarations without invoking harness code.
type Spec struct {
	ID         string   `json:"id"`
	Title      string   `json:"title"`
	Paper      string   `json:"paper"` // paper anchor, e.g. "Fig. 3c" or "Table I"
	Strategies []string `json:"strategies,omitempty"`
	Axes       []Axis   `json:"axes,omitempty"`
	// Backends lists the registry backends (device.Backends) this
	// experiment can be re-targeted to via Options.Backend; the workload
	// is then placed by the layout stage instead of running on the
	// harness's built-in device. Empty means default-device only.
	Backends []string `json:"backends,omitempty"`
	// Engines lists the non-default simulation engines this experiment's
	// harness honors via Options.Engine (it threads them into its
	// executor). "" and "statevector" are always accepted; harnesses that
	// simulate outside the executor (fig4a/fig4b characterizations,
	// fig5, table1) declare none, so requesting "stab" there is an error
	// rather than a silently-ignored option.
	Engines []string `json:"engines,omitempty"`
	// DerivesFrom names the experiment whose figure this one post-
	// processes; such specs set Derive instead of Run.
	DerivesFrom string  `json:"derives_from,omitempty"`
	Run         Runner  `json:"-"`
	Derive      Deriver `json:"-"`
}

// SupportsEngine reports whether the spec's harness honors the named
// engine ("" and "statevector" — the default — are always supported).
func (sp Spec) SupportsEngine(name string) bool {
	if name == "" || name == exec.EngineStatevector {
		return true
	}
	for _, e := range sp.Engines {
		if e == name {
			return true
		}
	}
	return false
}

// SupportsBackend reports whether the spec declares the named backend
// ("" — the default device — is always supported).
func (sp Spec) SupportsBackend(name string) bool {
	if name == "" {
		return true
	}
	for _, b := range sp.Backends {
		if b == name {
			return true
		}
	}
	return false
}

// AxisValues returns the named axis for the options: the Fast variant
// when Options.Fast is set and the axis declares one, the full values
// otherwise, nil when the axis is not declared.
func (sp Spec) AxisValues(name string, opts Options) []float64 {
	for _, ax := range sp.Axes {
		if ax.Name == name {
			if opts.Fast && ax.Fast != nil {
				return ax.Fast
			}
			return ax.Values
		}
	}
	return nil
}

// Depths returns the experiment's "depth" axis as ints with the
// Options.MaxDepth clamp applied: MaxDepth <= 0 keeps the declared axis,
// otherwise values above MaxDepth are dropped (never below one point).
func (sp Spec) Depths(opts Options) []int {
	vals := sp.AxisValues("depth", opts)
	out := make([]int, 0, len(vals))
	for _, v := range vals {
		d := int(v)
		if opts.MaxDepth > 0 && d > opts.MaxDepth {
			continue
		}
		out = append(out, d)
	}
	if len(out) == 0 && len(vals) > 0 {
		out = []int{1}
	}
	return out
}

func depthAxis(vals ...float64) Axis { return Axis{Name: "depth", Values: vals} }

// ramseyDepths is the shared depth axis of the four Fig. 3 Ramsey panels.
var ramseyDepths = depthAxis(0, 1, 2, 3, 4, 6, 8, 10, 13, 16, 20, 24)

// fig7Axes is shared by fig7c and fig7d: Fig7dOverhead delegates its
// computation to the fig7c harness, so the two specs must declare (and
// cache-key) the identical parameter space — one variable, not two
// copies that could drift apart.
var fig7Axes = []Axis{depthAxis(1, 2, 3, 4, 5, 6),
	{Name: "qubits", Values: []float64{12}, Fast: []float64{6}}}

// Backend whitelists of the re-targetable experiments. The line workload
// (Fig. 6) embeds anywhere a 6-qubit path exists; the ring workload
// (Fig. 7) needs a 12-cycle, which heavy-hex provides natively (its
// smallest plaquette is exactly 12 qubits) and the grid via 12-cycles.
// fig7c and fig7d share one list for the same reason they share axes.
// fig8's backends are full devices, not embedding targets: the harness
// benchmarks a layer tiled over the whole backend, which beyond
// sim.MaxQubits is only simulable by the stabilizer engine.
var (
	fig6Backends = []string{"line6", "line12", "ring12", "grid16", "heavyhex29", "heavyhex65", "heavyhex127"}
	fig7Backends = []string{"ring12", "grid16", "heavyhex29", "heavyhex65", "heavyhex127"}
	fig8Backends = []string{"layerfid10", "heavyhex29", "heavyhex65", "heavyhex127", "eagle127"}
)

// engineAware marks specs whose harness threads Options.Engine into its
// executor; specs without it run the statevector kernel unconditionally.
// autoOnly marks harnesses whose compiled circuits carry non-Clifford
// gates (RZZ and Ucan compensation, conditioned RZ): a forced stab run
// can never represent them, but auto dispatch falls back per instance.
var (
	engineAware = []string{exec.EngineStab, exec.EngineAuto}
	autoOnly    = []string{exec.EngineAuto}
)

// The correlation-spectroscopy figures run the full-device Ramsey probe,
// which embeds on any backend; full lattices beyond the statevector limit
// default to the stabilizer engine (not auto — the bare strategy carries
// no twirl for auto to dispatch on).
var (
	correlStrategyNames = []string{"bare", "twirled", "dd-aligned", "dd-staggered", "ca-dd", "ca-ec"}
	correlBackends      = []string{"line6", "line12", "ring12", "grid16", "layerfid10", "heavyhex29", "heavyhex65", "heavyhex127", "eagle127"}
)

// catalog is the declarative experiment registry, in paper order. Every
// figure's sweep space lives here, not in the harnesses: the harness asks
// its Spec for axis values, and the serving layers enumerate the same
// declarations over HTTP.
var catalog = []Spec{
	{ID: "fig3c", Title: "Ramsey case I: adjacent idle qubits", Paper: "Fig. 3c",
		Engines:    engineAware,
		Strategies: []string{"noisy", "aligned-dd", "staggered", "ca-ec", "ec+dd"},
		Axes:       []Axis{ramseyDepths}, Run: Fig3cCaseI},
	{ID: "fig3d", Title: "Ramsey case II: control spectator", Paper: "Fig. 3d",
		Engines:    engineAware,
		Strategies: []string{"noisy", "aligned-dd", "ca-dd", "ca-ec"},
		Axes:       []Axis{ramseyDepths}, Run: Fig3dCaseII},
	{ID: "fig3e", Title: "Ramsey case III: target spectator", Paper: "Fig. 3e",
		Engines:    engineAware,
		Strategies: []string{"noisy", "ca-dd", "ca-ec"},
		Axes:       []Axis{ramseyDepths}, Run: Fig3eCaseIII},
	{ID: "fig3f", Title: "Ramsey case IV: adjacent controls", Paper: "Fig. 3f",
		Engines:    engineAware,
		Strategies: []string{"noisy", "ca-dd", "ca-ec"},
		Axes:       []Axis{ramseyDepths}, Run: Fig3fCaseIV},
	{ID: "fig4a", Title: "Stark shift on a gate spectator", Paper: "Fig. 4a",
		Axes: []Axis{depthAxis(0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20, 22, 25, 28, 31, 34)},
		Run:  Fig4aStark},
	{ID: "fig4b", Title: "charge-parity beating", Paper: "Fig. 4b",
		Axes: []Axis{depthAxis(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30)},
		Run:  Fig4bParity},
	{ID: "fig4c", Title: "NNN crosstalk vs DD hierarchy", Paper: "Fig. 4c",
		Engines:    engineAware,
		Strategies: []string{"none", "aligned", "staggered", "walsh(ca)"},
		Axes:       []Axis{depthAxis(0, 2, 4, 6, 8, 12, 16, 20, 24, 30)},
		Run:        Fig4cNNN},
	{ID: "fig5", Title: "CA-DD constrained coloring example", Paper: "Fig. 5",
		Strategies: []string{"ca-dd"}, Run: Fig5Coloring},
	{ID: "fig6", Title: "Floquet Ising chain <X0 X5>", Paper: "Fig. 6",
		Engines:    autoOnly,
		Strategies: []string{"twirled", "ca-ec", "ca-dd"},
		Backends:   fig6Backends,
		Axes:       []Axis{depthAxis(1, 2, 3, 4, 5, 6, 7, 8)}, Run: Fig6Ising},
	{ID: "fig7c", Title: "Heisenberg ring <Z2> (12 spins)", Paper: "Fig. 7c",
		Engines:    autoOnly,
		Strategies: []string{"twirled", "dd-aligned", "ca-dd", "ca-ec"},
		Backends:   fig7Backends,
		Axes:       fig7Axes, Run: Fig7cHeisenberg},
	{ID: "fig7d", Title: "mitigation overhead (Heisenberg)", Paper: "Fig. 7d",
		Engines:    autoOnly,
		Strategies: []string{"twirled", "dd-aligned", "ca-dd", "ca-ec"},
		Backends:   fig7Backends,
		Axes:       fig7Axes, DerivesFrom: "fig7c", Derive: Fig7dOverhead},
	{ID: "fig8", Title: "layer fidelity, 10-qubit sparse layer", Paper: "Fig. 8",
		Engines:    engineAware,
		Strategies: []string{"twirled", "dd-aligned", "ca-dd", "ca-ec"},
		Backends:   fig8Backends,
		Axes:       []Axis{{Name: "lf_depth", Values: []float64{1, 2, 4, 6, 9, 12}, Fast: []float64{1, 2, 4}}},
		Run:        Fig8LayerFidelity},
	{ID: "fig9", Title: "dynamic-circuit Bell fidelity vs assumed tau", Paper: "Fig. 9",
		Engines:    autoOnly,
		Strategies: []string{"bare", "ca-ec"},
		Axes: []Axis{{Name: "tau_ns", Values: []float64{0, 250, 500, 750, 1000, 1150, 1300, 1500, 1750, 2000, 2300},
			Fast: []float64{0, 500, 1150, 1750}}},
		Run: Fig9Dynamic},
	{ID: "fig10", Title: "combined strategy P00 (6 qubits)", Paper: "Fig. 10",
		Engines:    autoOnly,
		Strategies: []string{"twirled", "ca-dd", "ca-ec", "ca-ec+dd"},
		Axes:       []Axis{depthAxis(1, 2, 3, 4, 5, 6)}, Run: Fig10Combined},
	{ID: "table1", Title: "error sources and suppression", Paper: "Table I",
		Strategies: []string{"ca-ec", "aligned-dd", "staggered", "ca-dd"}, Run: TableI},
	{ID: "figC1", Title: "error-correlation decay vs coupling distance", Paper: "correlation spectroscopy",
		Engines:    engineAware,
		Strategies: correlStrategyNames,
		Backends:   correlBackends,
		Axes:       []Axis{{Name: "depth", Values: []float64{4}, Fast: []float64{2}}},
		Run:        FigC1Decay},
	{ID: "figC2", Title: "nearest-neighbor correlation vs idle window tau", Paper: "correlation spectroscopy",
		Engines:    engineAware,
		Strategies: correlStrategyNames,
		Backends:   correlBackends,
		Axes: []Axis{{Name: "tau_ns", Values: []float64{250, 500, 1000, 1500, 2000},
			Fast: []float64{250, 1000, 2000}}},
		Run: FigC2TauScan},
}

// byID indexes the catalog. Harnesses must not call back into the
// registry (derived figures declare DerivesFrom instead) — a harness
// referenced from the catalog that mentioned Run/IDs/Lookup would form a
// compile-time initialization cycle through this variable.
var byID = func() map[string]Spec {
	m := make(map[string]Spec, len(catalog))
	for _, sp := range catalog {
		if _, dup := m[sp.ID]; dup {
			panic("experiments: duplicate catalog id " + sp.ID)
		}
		m[sp.ID] = sp
	}
	return m
}()

// Catalog returns the experiment declarations in paper order. The slice
// is a copy; Specs themselves are shared (do not mutate Axes in place).
func Catalog() []Spec {
	out := make([]Spec, len(catalog))
	copy(out, catalog)
	return out
}

// Lookup returns the declaration of one experiment id.
func Lookup(id string) (Spec, bool) {
	sp, ok := byID[id]
	return sp, ok
}

// IDs returns the registered experiment ids in paper order.
func IDs() []string {
	out := make([]string, len(catalog))
	for i, sp := range catalog {
		out[i] = sp.ID
	}
	return out
}

// Run executes one experiment by id.
func Run(id string, opts Options) (Figure, error) {
	sp, ok := byID[id]
	if !ok {
		return Figure{}, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
	}
	if !sp.SupportsBackend(opts.Backend) {
		return Figure{}, fmt.Errorf("experiments: %s does not support backend %q (declared: %v)",
			id, opts.Backend, sp.Backends)
	}
	if !exec.ValidEngine(opts.Engine) {
		return Figure{}, fmt.Errorf("experiments: unknown engine %q (known: %v)", opts.Engine, exec.EngineNames())
	}
	if !sp.SupportsEngine(opts.Engine) {
		return Figure{}, fmt.Errorf("experiments: %s does not honor engine %q (declared: %v)",
			id, opts.Engine, sp.Engines)
	}
	if sp.DerivesFrom != "" {
		base, err := Run(sp.DerivesFrom, opts)
		if err != nil {
			return Figure{}, err
		}
		return sp.Derive(sp, base, opts)
	}
	var span obs.Span
	if opts.Tracer.Enabled() {
		span = opts.Tracer.Start("experiment:" + id)
	}
	defer span.End()
	return sp.Run(sp, opts)
}
