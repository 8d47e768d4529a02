package sweep

import (
	"encoding/json"
	"testing"

	"casq/internal/experiments"
)

// TestBackendAxisExpansion pins the backend grid axis: cells expand the
// cartesian product, keys separate per backend, and the default-backend
// cell keys stay distinct from any named backend.
func TestBackendAxisExpansion(t *testing.T) {
	spec := Spec{
		IDs:  []string{"fig6"},
		Grid: Grid{Seeds: []int64{1, 2}, Backends: []string{"", "heavyhex29"}},
		Base: experiments.Options{Shots: 8, Instances: 1},
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 2 seeds x 2 backends = 4", len(cells))
	}
	keys := map[string]bool{}
	for _, c := range cells {
		k, err := c.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[string(k)] = true
	}
	if len(keys) != 4 {
		t.Fatalf("cells share keys: %d distinct of 4", len(keys))
	}
}

// TestEngineAxisKeys: engine-qualified cells must hash to distinct store
// keys — a stabilizer-engine figure is a different artifact from the
// statevector one — and "" is each figure's own default engine, not
// statevector everywhere (fig8 on a backend defaults to auto, figC1
// beyond 26 qubits to stab), so it keys apart from explicit statevector.
func TestEngineAxisKeys(t *testing.T) {
	engines := []string{"", "statevector", "stab"}
	for _, c := range []struct{ id, backend string }{{"fig8", ""}, {"fig8", "layerfid10"}, {"figC1", "heavyhex29"}} {
		spec := Spec{
			IDs:  []string{c.id},
			Grid: Grid{Engines: engines},
			Base: experiments.Options{Seed: 1, Shots: 8, Instances: 1, Backend: c.backend},
		}
		cells, err := spec.Cells()
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != len(engines) {
			t.Fatalf("%s on %q: expanded %d cells, want %d", c.id, c.backend, len(cells), len(engines))
		}
		keys := map[string]bool{}
		for _, cell := range cells {
			k, err := cell.Key()
			if err != nil {
				t.Fatal(err)
			}
			keys[string(k)] = true
		}
		if len(keys) != len(engines) {
			t.Errorf("%s on %q: engine cells share keys: %d distinct of %d", c.id, c.backend, len(keys), len(engines))
		}
	}
}

// TestBackendAxisValidation: an experiment that does not declare a backend
// must be rejected at expansion time, not during the sweep.
func TestBackendAxisValidation(t *testing.T) {
	spec := Spec{
		IDs:  []string{"fig5"},
		Grid: Grid{Backends: []string{"heavyhex29"}},
	}
	if _, err := spec.Cells(); err == nil {
		t.Fatal("fig5 with a backend axis must fail to expand")
	}
	cell := Cell{ID: "fig5", Opts: experiments.Options{Backend: "heavyhex29"}}
	if _, err := cell.Key(); err == nil {
		t.Fatal("key for an unsupported backend must error")
	}
	bad := Spec{IDs: []string{"fig5"}, Grid: Grid{Engines: []string{"warp"}}}
	if _, err := bad.Cells(); err == nil {
		t.Fatal("unknown engine axis must fail to expand")
	}
	undeclared := Spec{IDs: []string{"fig5"}, Grid: Grid{Engines: []string{"stab"}}}
	if _, err := undeclared.Cells(); err == nil {
		t.Fatal("engine axis over a non-engine-aware experiment must fail to expand")
	}
	ecell := Cell{ID: "fig5", Opts: experiments.Options{Engine: "warp"}}
	if _, err := ecell.Key(); err == nil {
		t.Fatal("key for an unknown engine must error")
	}
	ucell := Cell{ID: "fig5", Opts: experiments.Options{Engine: "stab"}}
	if _, err := ucell.Key(); err == nil {
		t.Fatal("key for an undeclared engine must error")
	}
	// Negative counts, which GET /figures answers with a 400, on each
	// count axis alone and all at once as a POST /sweeps body.
	var negative Spec
	if err := json.Unmarshal([]byte(negativeCountsBody), &negative); err != nil {
		t.Fatal(err)
	}
	specs := []Spec{negative}
	for _, g := range []Grid{{Shots: []int{16, -1}}, {Instances: []int{-3}}, {MaxDepths: []int{2, -2}}} {
		specs = append(specs, Spec{IDs: []string{"fig3c"}, Grid: g, Base: experiments.FastOptions()})
	}
	for _, sp := range specs {
		if cells, err := sp.Cells(); err == nil {
			t.Errorf("grid %+v with a negative count expanded to %d cells", sp.Grid, len(cells))
		}
	}
	for _, o := range []experiments.Options{{Shots: -1}, {Instances: -3}, {MaxDepth: -2}} {
		if _, err := (Cell{ID: "fig3c", Opts: o}).Key(); err == nil {
			t.Errorf("key for negative counts %+v must error", o)
		}
	}
	// Counts over the request cap, on each capped axis, below and above
	// counts the cap allows in one grid, and as a POST /sweeps body.
	var overCap Spec
	if err := json.Unmarshal([]byte(overCapBody), &overCap); err != nil {
		t.Fatal(err)
	}
	specs = []Spec{overCap}
	for _, g := range []Grid{{Shots: []int{2_000_000_000}}, {Instances: []int{2, 1<<10 + 1}}} {
		specs = append(specs, Spec{IDs: []string{"fig3c"}, Grid: g, Base: experiments.FastOptions()})
	}
	for _, sp := range specs {
		if cells, err := sp.Cells(); err == nil {
			t.Errorf("grid %+v over the count cap expanded to %d cells", sp.Grid, len(cells))
		}
	}
	for _, o := range []experiments.Options{{Shots: 1<<20 + 1}, {Instances: 1<<10 + 1}} {
		if _, err := (Cell{ID: "fig3c", Opts: o}).Key(); err == nil {
			t.Errorf("key for over-cap counts %+v must error", o)
		}
	}
}

// overCapBody is a sweep submit body whose shots axis holds an allowed
// count and one over the cap, so a probe of the least value alone passes.
const overCapBody = `{"ids":["fig5"],"grid":{"shots":[16,2000000000]},"fast":true}`

// negativeCountsBody is a sweep submit body with a negative value on
// every count axis.
const negativeCountsBody = `{"ids":["fig3c"],"grid":{"shots":[-1],"instances":[-3],"max_depths":[-2]},"fast":true}`
