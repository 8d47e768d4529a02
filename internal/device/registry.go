package device

import (
	"fmt"
	"sort"
	"sync"
)

// BackendInfo describes one registered backend without building it.
type BackendInfo struct {
	Name        string `json:"name"`
	NQubits     int    `json:"n_qubits"`
	Family      string `json:"family"` // line | ring | grid | heavy-hex | fragment
	Couplers    int    `json:"couplers"`
	NNN         int    `json:"nnn"`
	Description string `json:"description"`
	// Engines lists the simulation backends able to run the FULL device:
	// the stabilizer engine always can; the statevector kernel only up to
	// its amplitude limit (sim.MaxQubits — kept in sync by a registry
	// test). Larger backends remain statevector-targetable through the
	// layout stage's induced subregions.
	Engines []string `json:"engines"`
}

// statevectorMaxQubits mirrors sim.MaxQubits (device cannot import sim —
// sim imports device); TestRegistryEngines pins the two together.
const statevectorMaxQubits = 26

// enginesFor returns the engines able to simulate a full n-qubit device.
func enginesFor(n int) []string {
	if n <= statevectorMaxQubits {
		return []string{"statevector", "stab"}
	}
	return []string{"stab"}
}

type backendEntry struct {
	info  BackendInfo
	build func() *Device
}

var (
	registryMu sync.Mutex
	registry   = map[string]backendEntry{}
)

// RegisterBackend adds a named backend builder to the registry. The builder
// must be deterministic: every call returns an identical device (the
// experiment cache keys assume backend name fully determines calibration).
// Registering a duplicate name panics.
func RegisterBackend(info BackendInfo, build func() *Device) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[info.Name]; dup {
		panic("device: duplicate backend " + info.Name)
	}
	if info.Engines == nil {
		info.Engines = enginesFor(info.NQubits)
	}
	registry[info.Name] = backendEntry{info: info, build: build}
}

// Backends lists the registered backends ordered by size then name.
func Backends() []BackendInfo {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]BackendInfo, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NQubits != out[j].NQubits {
			return out[i].NQubits < out[j].NQubits
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// BackendNames lists the registered backend names ordered by size then name.
func BackendNames() []string {
	infos := Backends()
	out := make([]string, len(infos))
	for i, inf := range infos {
		out[i] = inf.Name
	}
	return out
}

// NewBackend builds the named backend.
func NewBackend(name string) (*Device, error) {
	registryMu.Lock()
	e, ok := registry[name]
	registryMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("device: unknown backend %q (known: %v)", name, BackendNames())
	}
	return e.build(), nil
}

// LookupBackend returns the named backend's description.
func LookupBackend(name string) (BackendInfo, bool) {
	registryMu.Lock()
	defer registryMu.Unlock()
	e, ok := registry[name]
	return e.info, ok
}

// registerTopo registers a standard synthetic backend: the topology under
// its own name, calibrated from DefaultOptions at the given seed.
func registerTopo(t Topology, family, desc string, seed int64) {
	opts := DefaultOptions()
	opts.Seed = seed
	RegisterBackend(BackendInfo{
		Name:        t.Name,
		NQubits:     t.NQubits,
		Family:      family,
		Couplers:    len(t.Couplers),
		NNN:         len(t.NNN),
		Description: desc,
	}, sharedIndexBuilder(t, opts))
}

// sharedIndexBuilder returns a builder of Synthesize(t, opts) whose devices
// all share the first build's topology index, so the backend's hop matrix
// is computed at most once per process.
func sharedIndexBuilder(t Topology, opts Options) func() *Device {
	var (
		once sync.Once
		topo *topoIndex
	)
	return func() *Device {
		d := synthesize(t, opts)
		once.Do(func() { topo = newTopoIndex(d) })
		d.topo = topo
		return d
	}
}

// The built-in registry: the paper's small fragments plus full-scale
// heavy-hex lattices, so every figure can also run on a device that the
// circuit does not fit exactly — the layout stage picks the subregion.
func init() {
	registerTopo(LineTopology("line6", 6), "line",
		"6-qubit line, the Fig. 6 Ising-chain geometry", 61)
	registerTopo(LineTopology("line12", 12), "line",
		"12-qubit line", 62)
	registerTopo(RingTopology("ring12", 12), "ring",
		"12-qubit ring, the Fig. 7 Heisenberg geometry", 63)
	registerTopo(GridTopology("grid16", 4, 4), "grid",
		"4x4 square lattice", 64)

	hex := func(name string, rows, cols int, seed int64, desc string) {
		t := HeavyHexTopology(name, rows, cols)
		// Sparse seeded frequency collisions: the NNN ZZ terms that make
		// the CA-DD coloring problem non-bipartite on real lattices.
		t.NNN = SampleCollisions(t, seed, 0.04)
		registerTopo(t, "heavy-hex", desc, seed)
	}
	hex("heavyhex29", 3, 9, 29, "29-qubit heavy-hex patch (Falcon-class)")
	hex("heavyhex65", 5, 11, 65, "65-qubit heavy-hex lattice (Hummingbird-class)")
	hex("heavyhex127", 7, 15, 127, "127-qubit heavy-hex lattice (Eagle-class)")
	// eagle127 is the paper-facing name of the Eagle-class lattice: the
	// same geometry, collision seed and calibration draw as heavyhex127,
	// registered separately so `fig8 -backend eagle127` reads like the
	// paper. Identical calibration is pinned by TestEagleAlias.
	hex("eagle127", 7, 15, 127, "IBM Eagle-class 127-qubit lattice (alias of heavyhex127)")

	RegisterBackend(BackendInfo{
		Name: "hexfrag6", NQubits: 6, Family: "fragment", Couplers: 5, NNN: 1,
		Description: "6-qubit heavy-hex fragment with one NNN collision (Fig. 5)",
	}, func() *Device { return NewHeavyHexFragment(DefaultOptions()) })
	RegisterBackend(BackendInfo{
		Name: "layerfid10", NQubits: 10, Family: "fragment", Couplers: 9,
		Description: "10-qubit layer-fidelity fragment (Fig. 8)",
	}, func() *Device { d, _ := NewLayerFidelityDevice(DefaultOptions()); return d })
}
