package pass

import (
	"math/rand"
	"strings"
	"testing"

	"casq/internal/caec"
	"casq/internal/circuit"
	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/models"
	"casq/internal/sched"
	"casq/internal/twirl"
)

func testDevice() *device.Device {
	return device.NewLine("pass", 4, device.DefaultOptions())
}

// legacyCompile replays the pre-redesign compiler's pass order
// verbatim (twirl -> schedule -> DD -> CA-EC -> schedule) so the pipeline
// rewrite can be pinned against it.
func legacyCompile(t *testing.T, dev *device.Device, c *circuit.Circuit, seed int64,
	doTwirl bool, ddStrat dd.Strategy, ec bool) (*circuit.Circuit, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := c.Clone()
	var err error
	if doTwirl {
		out, err = twirl.Instance(out, twirl.GatesOnly, rng)
		if err != nil {
			t.Fatal(err)
		}
	}
	sched.Schedule(out, dev)
	if ddStrat != dd.None {
		o := dd.DefaultOptions()
		o.Strategy = ddStrat
		if _, err := dd.Insert(out, dev, o); err != nil {
			t.Fatal(err)
		}
	}
	if ec {
		out, _, err = caec.Apply(out, dev, caec.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
	}
	dur := sched.Schedule(out, dev)
	return out, dur
}

// TestGoldenNamedPipelinesMatchLegacyCompile pins every canned strategy
// pipeline — its passes and its output, bit for bit — against the
// pre-redesign Compile path, and checks the DD and EC passes did work.
func TestGoldenNamedPipelinesMatchLegacyCompile(t *testing.T) {
	dev := testDevice()
	base := models.BuildFloquetIsing(4, 3)
	cases := []struct {
		pl      Pipeline
		passes  string
		twirl   bool
		ddStrat dd.Strategy
		ec      bool
	}{
		{Bare(), "bare(sched)", false, dd.None, false},
		{Twirled(), "twirled(twirl -> sched)", true, dd.None, false},
		{WithDD(dd.Aligned), "dd-aligned(twirl -> sched -> dd:aligned)", true, dd.Aligned, false},
		{WithDD(dd.Staggered), "dd-staggered(twirl -> sched -> dd:staggered)", true, dd.Staggered, false},
		{CADD(), "ca-dd(twirl -> sched -> dd:ca-dd)", true, dd.ContextAware, false},
		{CAEC(), "ca-ec(twirl -> sched -> ca-ec)", true, dd.None, true},
		{Combined(), "ca-ec+dd(twirl -> sched -> dd:ca-dd -> ca-ec)", true, dd.ContextAware, true},
	}
	for _, tc := range cases {
		if got := tc.pl.String(); got != tc.passes {
			t.Errorf("preset = %s, want %s", got, tc.passes)
		}
		const seed = 23
		want, wantDur := legacyCompile(t, dev, base, seed, tc.twirl, tc.ddStrat, tc.ec)
		got, rep, err := tc.pl.Apply(dev, rand.New(rand.NewSource(seed)), base)
		if err != nil {
			t.Fatalf("%s: %v", tc.pl.Name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: pipeline output diverged from legacy compile\nlegacy:\n%s\npipeline:\n%s",
				tc.pl.Name, want.String(), got.String())
		}
		if rep.Duration != wantDur {
			t.Errorf("%s: duration %v, legacy %v", tc.pl.Name, rep.Duration, wantDur)
		}
		if tc.ddStrat == dd.ContextAware && rep.DD.Total == 0 {
			t.Errorf("%s: no DD pulses inserted", tc.pl.Name)
		}
		if tc.ec && rep.EC.VirtualRZ == 0 {
			t.Errorf("%s: no EC corrections", tc.pl.Name)
		}
	}
}

// TestWithTwirlScope pins the scope override: only twirl passes change,
// and the receiver keeps its passes.
func TestWithTwirlScope(t *testing.T) {
	orig := Combined()
	all := orig.WithTwirlScope(twirl.AllQubits)
	if got, want := all.String(), "ca-ec+dd(twirl:all -> sched -> dd:ca-dd -> ca-ec)"; got != want {
		t.Errorf("retargeted = %s, want %s", got, want)
	}
	if got, want := orig.String(), Combined().String(); got != want {
		t.Errorf("receiver changed to %s, want %s", got, want)
	}
	if got := Bare().WithTwirlScope(twirl.AllQubits).String(); got != "bare(sched)" {
		t.Errorf("twirl-free pipeline retargeted to %s", got)
	}
}

func TestPipelineDoesNotMutateInput(t *testing.T) {
	dev := testDevice()
	base := models.BuildFloquetIsing(4, 1)
	depth := base.Depth()
	if _, _, err := Combined().Apply(dev, rand.New(rand.NewSource(1)), base); err != nil {
		t.Fatal(err)
	}
	if base.Depth() != depth {
		t.Error("Apply mutated the input circuit")
	}
	if base.CountGates(gates.XDD) != 0 {
		t.Error("Apply inserted pulses into the input circuit")
	}
}

// TestStrategyPresets checks what each paper strategy is made of: whether
// it twirls (gates only), which DD strategy it inserts, and whether it
// runs CA-EC.
func TestStrategyPresets(t *testing.T) {
	cases := []struct {
		pl     Pipeline
		twirl  bool
		ddKind dd.Strategy
		ec     bool
	}{
		{Bare(), false, dd.None, false},
		{Twirled(), true, dd.None, false},
		{WithDD(dd.Aligned), true, dd.Aligned, false},
		{CADD(), true, dd.ContextAware, false},
		{CAEC(), true, dd.None, true},
		{Combined(), true, dd.ContextAware, true},
	}
	for _, c := range cases {
		twirled, ddKind, ec := false, dd.None, false
		for _, ps := range c.pl.Passes {
			switch p := ps.(type) {
			case twirlPass:
				twirled = true
				if p.scope != twirl.GatesOnly {
					t.Errorf("strategy %s twirls with scope %v", c.pl.Name, p.scope)
				}
			case ddPass:
				ddKind = p.opts.Strategy
			case ecPass:
				ec = true
			}
		}
		if twirled != c.twirl || ddKind != c.ddKind || ec != c.ec {
			t.Errorf("strategy %s misconfigured: %s", c.pl.Name, c.pl)
		}
	}
}

func TestCompileProducesValidCircuits(t *testing.T) {
	dev := testDevice()
	base := models.BuildFloquetIsing(4, 2)
	cases := []struct {
		pl       Pipeline
		caDD, ec bool
	}{
		{Bare(), false, false},
		{Twirled(), false, false},
		{WithDD(dd.Aligned), false, false},
		{CADD(), true, false},
		{CAEC(), false, true},
		{Combined(), true, true},
	}
	for _, c := range cases {
		out, rep, err := c.pl.Apply(dev, rand.New(rand.NewSource(11)), base)
		if err != nil {
			t.Fatalf("%s: %v", c.pl.Name, err)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("%s produced invalid circuit: %v", c.pl.Name, err)
		}
		if rep.Duration <= 0 {
			t.Errorf("%s: zero duration", c.pl.Name)
		}
		if c.caDD && rep.DD.Total == 0 {
			t.Errorf("%s: no DD pulses inserted", c.pl.Name)
		}
		if c.ec && rep.EC.VirtualRZ == 0 {
			t.Errorf("%s: no EC corrections", c.pl.Name)
		}
	}
}

// TestCompileDoesNotMutateInput extends TestPipelineDoesNotMutateInput to
// every paper strategy and to the all-qubit twirl scope: the input
// circuit, timing included, reads the same after compilation.
func TestCompileDoesNotMutateInput(t *testing.T) {
	dev := testDevice()
	base := models.BuildFloquetIsing(4, 1)
	want := base.String()
	for _, pl := range []Pipeline{Bare(), Twirled(), WithDD(dd.Aligned), CADD(), CAEC(), Combined(),
		Combined().WithTwirlScope(twirl.AllQubits)} {
		if _, _, err := pl.Apply(dev, rand.New(rand.NewSource(1)), base); err != nil {
			t.Fatalf("%s: %v", pl, err)
		}
		if got := base.String(); got != want {
			t.Fatalf("%s mutated the input circuit\nbefore:\n%s\nafter:\n%s", pl, want, got)
		}
	}
}

// TestCustomOrderings exercises compositions the named strategies cannot
// express.
func TestCustomOrderings(t *testing.T) {
	dev := testDevice()
	base := models.BuildFloquetIsing(4, 2)
	ddOpts := dd.DefaultOptions()
	custom := []Pipeline{
		// EC before DD: compensation first, decoupling on the result.
		New("ec-then-dd", Twirl(twirl.GatesOnly), Schedule(), EC(caec.DefaultOptions()), Schedule(), DD(ddOpts)),
		// Twirl-free DD ablation.
		New("dd-only", Schedule(), DD(ddOpts)),
		// Double twirl.
		New("double-twirl", Twirl(twirl.GatesOnly), Twirl(twirl.AllQubits), Schedule()),
		// EC-only without twirl.
		New("ec-only", Schedule(), EC(caec.DefaultOptions())),
	}
	for _, pl := range custom {
		out, rep, err := pl.Apply(dev, rand.New(rand.NewSource(9)), base)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name, err)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("%s: invalid circuit: %v", pl.Name, err)
		}
		if rep.Duration <= 0 {
			t.Errorf("%s: zero duration", pl.Name)
		}
		if len(rep.Applied) != len(pl.Passes) {
			t.Errorf("%s: applied %v, want %d passes", pl.Name, rep.Applied, len(pl.Passes))
		}
	}
}

func TestReportRecordsPassWork(t *testing.T) {
	dev := testDevice()
	base := models.BuildFloquetIsing(4, 2)
	out, rep, err := Combined().Apply(dev, rand.New(rand.NewSource(4)), base)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pipeline != "ca-ec+dd" {
		t.Errorf("pipeline name %q", rep.Pipeline)
	}
	if rep.DD.Total == 0 {
		t.Error("no DD pulses recorded")
	}
	if rep.EC.VirtualRZ == 0 {
		t.Error("no EC corrections recorded")
	}
	if out.CountGates(gates.XDD) != rep.DD.Total {
		t.Errorf("report says %d pulses, circuit has %d", rep.DD.Total, out.CountGates(gates.XDD))
	}
}

// TestReportAccumulatesRepeatedPasses pins that repeated DD/EC passes add
// into the report instead of overwriting it with the last pass's work.
func TestReportAccumulatesRepeatedPasses(t *testing.T) {
	dev := testDevice()
	base := models.BuildFloquetIsing(4, 2)
	aligned := dd.DefaultOptions()
	aligned.Strategy = dd.Aligned

	single, srep, err := New("dd-once", Schedule(), DD(aligned)).
		Apply(dev, rand.New(rand.NewSource(7)), base)
	if err != nil {
		t.Fatal(err)
	}
	double, drep, err := New("dd-twice", Schedule(), DD(aligned), Schedule(), DD(aligned)).
		Apply(dev, rand.New(rand.NewSource(7)), base)
	if err != nil {
		t.Fatal(err)
	}
	if srep.DD.Total == 0 {
		t.Fatal("single DD pass inserted nothing")
	}
	// The second DD pass finds the windows already decoupled and inserts
	// nothing; under the old overwrite semantics the report would show
	// that last pass's zero. Accumulation keeps the first pass's work.
	if got, want := drep.DD.Total, double.CountGates(gates.XDD); got != want {
		t.Errorf("double-DD report says %d pulses, circuit has %d", got, want)
	}
	if drep.DD.Total != srep.DD.Total {
		t.Errorf("double-DD total %d, want %d (first pass's pulses, not the last pass's zero)",
			drep.DD.Total, srep.DD.Total)
	}
	if got, want := single.CountGates(gates.XDD), srep.DD.Total; got != want {
		t.Errorf("single-DD circuit has %d pulses, report says %d", got, want)
	}

	ecrep := func(passes ...Pass) Report {
		_, rep, err := New("ec", passes...).Apply(dev, rand.New(rand.NewSource(7)), base)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	once := ecrep(Schedule(), EC(caec.DefaultOptions()))
	twice := ecrep(Schedule(), EC(caec.DefaultOptions()), Schedule(), EC(caec.DefaultOptions()))
	if once.EC.VirtualRZ == 0 {
		t.Fatal("single EC pass recorded nothing")
	}
	if twice.EC.VirtualRZ <= once.EC.VirtualRZ {
		t.Errorf("double-EC VirtualRZ %d should exceed single %d", twice.EC.VirtualRZ, once.EC.VirtualRZ)
	}
}

// customPass checks user-defined passes slot into a pipeline: it strips
// trailing all-delay layers.
type customPass struct{ applied *bool }

func (customPass) Name() string { return "strip-trailing-delays" }
func (p customPass) Apply(ctx *Context, c *circuit.Circuit) error {
	*p.applied = true
	for len(c.Layers) > 0 {
		last := c.Layers[len(c.Layers)-1]
		all := len(last.Instrs) > 0
		for _, in := range last.Instrs {
			if in.Gate != gates.Delay {
				all = false
			}
		}
		if !all {
			break
		}
		c.Layers = c.Layers[:len(c.Layers)-1]
	}
	return nil
}

func TestCustomPassRegistration(t *testing.T) {
	dev := testDevice()
	c := circuit.New(4, 0)
	c.AddLayer(circuit.OneQubitLayer).H(0)
	l := c.AddLayer(circuit.TwoQubitLayer)
	for q := 0; q < 4; q++ {
		l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{q}, Params: []float64{500}})
	}
	applied := false
	pl := Twirled().Then(customPass{&applied}).Named("twirl+strip")
	out, rep, err := pl.Apply(dev, rand.New(rand.NewSource(2)), c)
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("custom pass not applied")
	}
	if out.Depth() >= c.Depth() {
		t.Errorf("trailing delay layer not stripped: depth %d -> %d", c.Depth(), out.Depth())
	}
	if want := "strip-trailing-delays"; rep.Applied[len(rep.Applied)-1] != want {
		t.Errorf("applied = %v, want last %q", rep.Applied, want)
	}
	if !strings.Contains(pl.String(), "twirl -> sched -> strip-trailing-delays") {
		t.Errorf("String() = %q", pl.String())
	}
}

// TestUnscheduledDDOrECErrors pins that timing-consuming passes reject
// pipelines missing a preceding Schedule instead of silently inserting
// nothing.
func TestUnscheduledDDOrECErrors(t *testing.T) {
	dev := testDevice()
	base := models.BuildFloquetIsing(4, 2)
	for _, pl := range []Pipeline{
		New("dd-no-sched", Twirl(twirl.GatesOnly), DD(dd.DefaultOptions())),
		New("ec-no-sched", EC(caec.DefaultOptions())),
	} {
		_, _, err := pl.Apply(dev, rand.New(rand.NewSource(1)), base)
		if err == nil {
			t.Fatalf("%s: expected error for missing sched pass", pl.Name)
		}
		if !strings.Contains(err.Error(), "sched") {
			t.Errorf("%s: error %q should point at the missing sched pass", pl.Name, err)
		}
	}
}

func TestApplyErrorNamesPass(t *testing.T) {
	dev := testDevice()
	c := circuit.New(4, 0)
	c.AddLayer(circuit.OneQubitLayer).H(0)
	bad := New("bad", failPass{})
	if _, _, err := bad.Apply(dev, rand.New(rand.NewSource(1)), c); err == nil {
		t.Fatal("expected error")
	} else if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "fail") {
		t.Errorf("error %q should name the pass and cause", err)
	}
}

type failPass struct{}

func (failPass) Name() string { return "fail" }
func (failPass) Apply(ctx *Context, c *circuit.Circuit) error {
	return errBoom
}

var errBoom = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }
