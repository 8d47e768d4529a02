package experiments

// Correlation-spectroscopy harness tests. Statistical conventions (see
// DESIGN.md): fixed seeds, 5-sigma acceptance bounds built from the
// estimators' own jackknife standard errors, plus — for cross-engine
// comparisons only — a one-shot-noise-unit bias allowance (1/sqrt(shots))
// for the Pauli-twirling approximation at finite twirl depth.

import (
	"math"
	"strings"
	"testing"
	"time"

	"casq/internal/correl"
	"casq/internal/pass"
)

// TestFigCStabMatchesStatevector is the acceptance pin for the engine
// cross-check: on the 6-qubit default device and the 10-qubit layerfid10
// backend, the twirled spectroscopy correlation matrices derived from the
// stabilizer (Pauli-frame) engine agree with statevector-derived ones
// within 5 sigma of the combined jackknife errors, and the marginal flip
// rates within 5 sigma of the combined binomial errors.
func TestFigCStabMatchesStatevector(t *testing.T) {
	for _, backend := range []string{"", "layerfid10"} {
		dev, err := correlDevice(backend)
		if err != nil {
			t.Fatal(err)
		}
		const shots = 4096
		opts := Options{Seed: 17, Shots: shots, Instances: 8}
		sv, err := correlMatrix(dev, pass.Twirled(), 2, 600, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Engine = "stab"
		st, err := correlMatrix(dev, pass.Twirled(), 2, 600, opts)
		if err != nil {
			t.Fatal(err)
		}
		// One shot-noise unit of PTA bias allowance on top of the 5-sigma
		// statistical bound: the two engines model the same channels but
		// decohere coherent terms differently at finite twirl depth.
		biasFloor := 1.0 / math.Sqrt(float64(shots))
		for i := 0; i < sv.N; i++ {
			seP := math.Hypot(
				math.Sqrt(sv.P[i]*(1-sv.P[i])/float64(sv.Shots)),
				math.Sqrt(st.P[i]*(1-st.P[i])/float64(st.Shots)))
			if d := math.Abs(sv.P[i] - st.P[i]); d > 5*seP {
				t.Errorf("%s: qubit %d flip rate sv=%.4f stab=%.4f differs by %.1f sigma",
					name(backend), i, sv.P[i], st.P[i], d/seP)
			}
			for j := i + 1; j < sv.N; j++ {
				se := math.Hypot(sv.SECorrAt(i, j), st.SECorrAt(i, j))
				d := math.Abs(sv.CorrAt(i, j) - st.CorrAt(i, j))
				if d > 5*se+biasFloor {
					t.Errorf("%s: pair (%d,%d) corr sv=%.4f stab=%.4f exceeds 5 sigma + floor (%.4f)",
						name(backend), i, j, sv.CorrAt(i, j), st.CorrAt(i, j), 5*se+biasFloor)
				}
			}
		}
	}
}

func name(backend string) string {
	if backend == "" {
		return "default6"
	}
	return backend
}

// TestFigC1Eagle127Stab is the full-scale acceptance pin: figC1 on the
// 127-qubit eagle backend under the stabilizer engine, single worker,
// produces the complete 8001-pair correlation matrix for all six
// strategies in under 5 seconds.
func TestFigC1Eagle127Stab(t *testing.T) {
	if testing.Short() {
		t.Skip("full-device run")
	}
	opts := DefaultOptions()
	opts.Backend = "eagle127"
	opts.Engine = "stab"
	opts.Workers = 1
	start := time.Now()
	fig, err := Run("figC1", opts)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Errorf("figC1 on eagle127 took %v, acceptance bound is 5s", elapsed)
	}
	if len(fig.Series) != 6 {
		t.Fatalf("expected 6 strategy series, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) == 0 {
			t.Errorf("strategy %s produced no decay bins", s.Label)
		}
	}
	found := false
	for _, n := range fig.Notes {
		if strings.Contains(n, "8001 pairs") {
			found = true
		}
	}
	if !found {
		t.Errorf("figure notes do not report the full 8001-pair matrix: %v", fig.Notes)
	}
}

// TestFigCCatalog checks the catalog wiring of both spectroscopy specs:
// they run end to end under fast options, emit one series per strategy,
// and reject engines/backends they do not declare.
func TestFigCCatalog(t *testing.T) {
	for _, id := range []string{"figC1", "figC2"} {
		sp, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not in catalog", id)
		}
		if len(sp.Strategies) != 6 {
			t.Errorf("%s declares %d strategies, want 6", id, len(sp.Strategies))
		}
		opts := FastOptions()
		opts.Shots = 256
		fig, err := Run(id, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Series) != len(sp.Strategies) {
			t.Errorf("%s produced %d series, want %d", id, len(fig.Series), len(sp.Strategies))
		}
		for i, s := range fig.Series {
			if s.Label != sp.Strategies[i] {
				t.Errorf("%s series %d labeled %q, catalog declares %q", id, i, s.Label, sp.Strategies[i])
			}
		}
	}
	if _, err := Run("figC1", Options{Backend: "nosuch"}); err == nil {
		t.Error("figC1 accepted an undeclared backend")
	}
}

// TestCorrelationDiagnostic checks the serve-layer computation: a report
// on a small backend carries consistent fields, honors the strategy
// parameter, and rejects unknown strategies.
func TestCorrelationDiagnostic(t *testing.T) {
	opts := FastOptions()
	opts.Shots = 512
	rep, err := CorrelationDiagnostic("line6", "ca-dd", opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "line6" || rep.Strategy != "ca-dd" || rep.NQubits != 6 {
		t.Errorf("report identity wrong: %+v", rep)
	}
	if rep.Shots < opts.Shots {
		t.Errorf("report ran %d shots, want >= %d", rep.Shots, opts.Shots)
	}
	if len(rep.FlipRates) != 6 {
		t.Errorf("expected 6 flip rates, got %d", len(rep.FlipRates))
	}
	if want := 5.0 / math.Sqrt(float64(rep.Shots)); rep.Threshold != want {
		t.Errorf("threshold %v, want %v", rep.Threshold, want)
	}
	for _, p := range rep.Pairs {
		if math.Abs(p.Corr) < rep.Threshold {
			t.Errorf("sparse pair (%d,%d) corr %v below threshold %v", p.I, p.J, p.Corr, rep.Threshold)
		}
	}
	for _, b := range rep.Decay {
		if b.Pairs <= 0 || b.Distance < 1 {
			t.Errorf("bad decay bin %+v", b)
		}
	}
	if _, err := CorrelationDiagnostic("line6", "nosuch", opts); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := CorrelationDiagnostic("nosuch", "", opts); err == nil {
		t.Error("unknown backend accepted")
	}
	// The default strategy is twirled.
	rep2, err := CorrelationDiagnostic("line6", "", opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Strategy != "twirled" {
		t.Errorf("default strategy %q, want twirled", rep2.Strategy)
	}
	_ = correl.Pairs(rep2.NQubits) // package wiring sanity
}
