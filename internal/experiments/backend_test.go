package experiments

import (
	"strings"
	"testing"

	"casq/internal/device"
	"casq/internal/store"
)

// TestDefaultBackendGolden pins the payload of every catalog spec on its
// default device under the default engine and every engine the spec
// declares ("id" and "id/engine"), plus the two full-device payloads the
// benchmark measures (fig8 and figC1 on eagle127 under stab), at reduced
// options. At 16 shots no run fills a 64-shot block or gives the
// jackknife a second word, so figC1 on eagle127 is pinned once more at
// 1000 shots. Refactors of the harnesses, the pass pipelines and the engines
// must leave each payload bit-identical. The fig5, fig6, fig7c, fig8 and
// fig9 hashes date from the pre-registry harnesses; the rest were
// recorded before the strategy layer moved into internal/pass.
func TestDefaultBackendGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	golden := map[string]store.Key{
		"fig3c":               "685107155be8fdd9dc18844136be138f3d02939b4e6899dc8f7fc566989945df",
		"fig3c/stab":          "985233070eda74cd220eaf037f193e0de82bf54a9df452f5ff3b974a85413c48",
		"fig3c/auto":          "685107155be8fdd9dc18844136be138f3d02939b4e6899dc8f7fc566989945df",
		"fig3d":               "7528407f2322f2bb647a307fda1c5b0b3973dc991fc3c8b847f3c6bbd2d764b9",
		"fig3d/stab":          "bff4fc02add4ffa6bfb1fb4726a52f3a6a62ac85d3e47f7b32399f9bb081bfcf",
		"fig3d/auto":          "7528407f2322f2bb647a307fda1c5b0b3973dc991fc3c8b847f3c6bbd2d764b9",
		"fig3e":               "2694184789a6b6cd1c9ccb496a1570cd1016a4bdb8da4e6d8127ec22c95191b6",
		"fig3e/stab":          "f1ba8f3a8e4853e3e801c6e3a9c89f3eebeba5f8e53a7b59ea8b32eebea40803",
		"fig3e/auto":          "2694184789a6b6cd1c9ccb496a1570cd1016a4bdb8da4e6d8127ec22c95191b6",
		"fig3f":               "0e1882bf3082f83951cac3143b570e6952ac21bf15f3ba1722ed051d29996cc0",
		"fig3f/stab":          "7cbd296007eeded1f6a079afe50edcd24fd41c46a17fc678c32f9fb90ecfb7a9",
		"fig3f/auto":          "0e1882bf3082f83951cac3143b570e6952ac21bf15f3ba1722ed051d29996cc0",
		"fig4a":               "31ec55361971a2a882b5ebe8fbeb60a803b2a4c337e0f1434fec3294e5829795",
		"fig4b":               "ecd90afb36d647124d1f580ba2458e69295d79db8a6339dd980f4bf9f81cacf9",
		"fig4c":               "665d3a81fba6fce6116146f05979eaf2c8c3b0c84e81232acb972f6d452ad34a",
		"fig4c/stab":          "0eeab5151b5511c735cc55aa3170c94b7f50c84215b60c1883442c9688ce4116",
		"fig4c/auto":          "665d3a81fba6fce6116146f05979eaf2c8c3b0c84e81232acb972f6d452ad34a",
		"fig5":                "196ba93ed1438e3e7c40e7e94d39ab0bf115732f1adf674cc54463a45fef2c58",
		"fig6":                "00b6f4170571e31a40c330b7f3af61efd337db690002df024909deafed59c832",
		"fig6/auto":           "138396f9354fb8267d39e72365101681e81107bb73460fed3f57248bd89a7da5",
		"fig7c":               "42f95b77b468bf4c909f5201846a6dcdce3229f7634fd38b9925b5c44532cb07",
		"fig7c/auto":          "42f95b77b468bf4c909f5201846a6dcdce3229f7634fd38b9925b5c44532cb07",
		"fig7d":               "55e63df5a74ca4b8b5ebc158d1bc407d775e3d524382d5dc0b09807c232f4f80",
		"fig7d/auto":          "55e63df5a74ca4b8b5ebc158d1bc407d775e3d524382d5dc0b09807c232f4f80",
		"fig8":                "d85149fc26529b0e2cf7ababc42adebd29732db8aa62c2f14e2b49e2687d3c33",
		"fig8/stab":           "56e3a3d090b2333cc55088310f7e420d383cc072cd9459739059710361ba02ab",
		"fig8/auto":           "56e3a3d090b2333cc55088310f7e420d383cc072cd9459739059710361ba02ab",
		"fig9":                "d2dde412db75fe44c3704a47b344f47c9c6cf1ef731b338ecd0354d388af1333",
		"fig9/auto":           "d2dde412db75fe44c3704a47b344f47c9c6cf1ef731b338ecd0354d388af1333",
		"fig10":               "3a68f912a92c7fab6e643df0d0952a2f591fcaf1ea5a11705b1aea5f9d6f37bc",
		"fig10/auto":          "74ca9f57dcd7663f688dba8a3a6ed3d781a92593f190d08125de9d3e531da4f6",
		"table1":              "ceec63e4c40259b5c752fa29a093be525fbf559f89100ed47590d5abd6e5f3cd",
		"figC1":               "827ba57cf246dc6277066e5e98bdbe67588c6f0956cf20587147fc3e84deab40",
		"figC1/stab":          "6578ba3f27a7b2f4e7c9a8b01035195c46cf8be3a9c9f8cb8cd5a53904df8fa2",
		"figC1/auto":          "99949328b0e9d52244246f65562fc8395339ac901e29ecd7e3c206c2b5f1d05d",
		"figC2":               "9e6197df2568228f10826914b2ff1e812798d75cb5fe4b7750b2a658156394a0",
		"figC2/stab":          "32fc8a5e8f96bfa7f65915132b87d8efad3fb32fbd39e027c1e0df1df29645be",
		"figC2/auto":          "a1806f24ca61e3bf919bb34442511dd29f7cec401c6337f8daa73f8ae28a7b7e",
		"fig8@eagle127/stab":  "49147f5522d99d43b647d3cc89d468bd64a206c3a5bd783e4ecd1a8f37901ae6",
		"figC1@eagle127/stab": "89ec06c77266adc0bfad63f59fb6efda2fccbfa340fa77131c4ee9c281ba27c6",
		// 500 shots per instance: 7 full 64-shot blocks and a 52-shot
		// scalar tail each, and 16 jackknife words over the merged record,
		// the last one 40 shots long.
		"figC1@eagle127/stab/1000shots": "1bc52fa147bffab38757860399d71c3a0f380a42462cef09a4b4b627dc650cda",
	}
	o := FastOptions()
	o.Shots = 16
	o.Instances = 2
	o.MaxDepth = 2
	type run struct {
		id   string
		opts Options
	}
	runs := map[string]run{}
	for _, sp := range Catalog() {
		for _, eng := range append([]string{""}, sp.Engines...) {
			ro := o
			ro.Engine = eng
			runs[strings.TrimSuffix(sp.ID+"/"+eng, "/")] = run{sp.ID, ro}
		}
	}
	for _, id := range []string{"fig8", "figC1"} {
		ro := o
		ro.Backend, ro.Engine = "eagle127", "stab"
		runs[id+"@eagle127/stab"] = run{id, ro}
	}
	big := o
	big.Backend, big.Engine, big.Shots = "eagle127", "stab", 1000
	runs["figC1@eagle127/stab/1000shots"] = run{"figC1", big}
	if len(runs) != len(golden) {
		t.Errorf("%d spec/engine runs but %d golden hashes", len(runs), len(golden))
	}
	for name, r := range runs {
		fig, err := Run(r.id, r.opts)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		got, err := store.Fingerprint(fig)
		if err != nil {
			t.Fatal(err)
		}
		if got != golden[name] {
			t.Errorf("%s: payload drifted: fingerprint %s, want %s", name, got, golden[name])
		}
	}
}

// TestFig7cReproducibleOnBackends: CA-EC compensates Stark angles that
// sum shifts from several driven neighbours, so fig7c on a backend larger
// than its ring must still give the same bytes on every run.
func TestFig7cReproducibleOnBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, backend := range []string{"grid16", "heavyhex29"} {
		o := FastOptions()
		o.Backend = backend
		var first store.Key
		for i := 0; i < 6; i++ {
			fig, err := Run("fig7c", o)
			if err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
			got, err := store.Fingerprint(fig)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = got
			} else if got != first {
				t.Fatalf("%s: run %d fingerprint %s, run 0 gave %s", backend, i, got, first)
			}
		}
	}
}

// TestFig6OnRegistryBackend runs the Ising figure end-to-end on a
// 29-qubit heavy-hex backend: the layout stage must place the 6-qubit
// chain on coupled qubits (zero SWAPs for a path workload) and the
// physics must survive — CA-EC still beats bare twirling at depth.
func TestFig6OnRegistryBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	o := FastOptions()
	o.Shots = 32
	o.Instances = 2
	o.MaxDepth = 3
	o.Backend = "heavyhex29"
	fig, err := Run("fig6", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) < 4 {
		t.Fatalf("fig6 produced %d series", len(fig.Series))
	}
	last := map[string]float64{}
	for _, s := range fig.Series {
		last[s.Label] = s.Y[len(s.Y)-1]
	}
	d := last["ideal"] - last["ca-ec"]
	if d < 0 {
		d = -d
	}
	if d > 0.35 {
		t.Errorf("CA-EC far from ideal on the backend: %v vs %v", last["ca-ec"], last["ideal"])
	}
	sawBackend := false
	for _, n := range fig.Notes {
		if strings.Contains(n, "backend heavyhex29") {
			sawBackend = true
		}
	}
	if !sawBackend {
		t.Error("figure notes do not record the backend placement")
	}
}

// TestFig7OnRegistryBackend embeds the 12-spin Heisenberg ring in the
// heavy-hex lattice (its smallest plaquette is exactly a 12-cycle).
func TestFig7OnRegistryBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	o := Options{Seed: 11, Shots: 16, Instances: 2, MaxDepth: 2, Backend: "heavyhex29"}
	fig, err := Run("fig7c", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) < 5 {
		t.Fatalf("fig7c produced %d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) == 0 {
			t.Errorf("series %s is empty", s.Label)
		}
	}
}

// TestBackendValidation pins the registry-level checks: undeclared
// backends are rejected per experiment, unknown ones by the device
// registry, and so are negative counts.
func TestBackendValidation(t *testing.T) {
	o := fastOpts()
	o.Backend = "heavyhex29"
	if _, err := Run("fig5", o); err == nil {
		t.Error("fig5 does not declare backends and must reject one")
	}
	o.Backend = ""
	o.Engine = "warp"
	if _, err := Run("fig5", o); err == nil {
		t.Error("unknown engine must error")
	}
	o.Engine = "stab"
	if _, err := Run("fig5", o); err == nil {
		t.Error("fig5 does not honor engines and must reject stab rather than silently ignore it")
	}
	if _, err := Run("table1", o); err == nil {
		t.Error("table1 does not honor engines and must reject stab")
	}
	o.Engine = "statevector"
	if _, err := Run("fig5", o); err != nil {
		t.Errorf("explicit statevector is always honored: %v", err)
	}
	o.Engine = ""
	o.Backend = "not-a-backend"
	if _, err := Run("fig6", o); err == nil {
		t.Error("unknown backend must error")
	}
	o.Backend = ""
	for _, neg := range []Options{{Shots: -1}, {Instances: -3}, {MaxDepth: -2}} {
		if _, err := Run("fig5", neg); err == nil {
			t.Errorf("negative counts %+v must error", neg)
		}
	}
	// Counts over the request cap fail the check. Run is only called once
	// the check has refused them, so a missing cap fails here instead of
	// running a figure at two billion shots.
	fig8, _ := Lookup("fig8")
	for _, over := range []Options{{Shots: 2_000_000_000}, {Shots: 1<<20 + 1}, {Instances: 1<<10 + 1}} {
		if err := fig8.Check(over); err == nil {
			t.Fatalf("over-cap counts %+v must fail the check", over)
		}
		if _, err := Run("fig8", over); err == nil {
			t.Errorf("over-cap counts %+v must error", over)
		}
	}
	if err := fig8.Check(Options{Shots: 1 << 20, Instances: 1 << 10}); err != nil {
		t.Errorf("counts at the cap must pass: %v", err)
	}
	for _, sp := range Catalog() {
		for _, b := range sp.Backends {
			if _, ok := device.LookupBackend(b); !ok {
				t.Errorf("%s declares unknown backend %q", sp.ID, b)
			}
		}
	}
}
