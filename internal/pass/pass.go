// Package pass is the composable compilation layer of the context-aware
// compiler. The paper's central claim is that error suppression must be
// *context-aware* — the right pass composition depends on the workload —
// so instead of one hard-coded pipeline, this package exposes each
// transformation (Pauli twirling, scheduling, CA-DD insertion, CA-EC
// compensation) as a Pass and lets users compose arbitrary orderings
// through a Pipeline.
//
// The paper's six named strategies (Bare … Combined) are provided as
// canned pipelines; anything else — EC before DD, double twirling,
// twirl-free DD ablations — is one pass.New call away:
//
//	pl := pass.New("ec-then-dd",
//	    pass.Twirl(twirl.GatesOnly),
//	    pass.Schedule(),
//	    pass.EC(caec.DefaultOptions()),
//	    pass.Schedule(),
//	    pass.DD(dd.DefaultOptions()),
//	)
//	compiled, report, err := pl.Apply(dev, rng, circ)
//
// A custom Pass is any type implementing Name/Apply; it receives a
// *Context carrying the device, the deterministic RNG of this compilation,
// and the Report sink the built-in passes record into.
package pass

import (
	"fmt"
	"math/rand"

	"casq/internal/caec"
	"casq/internal/circuit"
	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/obs"
	"casq/internal/sched"
	"casq/internal/twirl"
)

// Context is the per-compilation state threaded through every pass.
type Context struct {
	// Dev is the hardware model the passes compile against.
	Dev *device.Device
	// Rng is the deterministic randomness source of this compilation
	// (twirl sampling). Each compilation owns its Rng; passes must draw
	// all randomness from it so that a pipeline is reproducible from the
	// seed alone.
	Rng *rand.Rand
	// Report is the sink the passes record their work into.
	Report *Report
	// Tracer records per-pass compile spans; nil (the default) disables
	// tracing at zero cost. Lane is the tracer lane the spans land on —
	// the executor assigns one lane per concurrent instance so compile
	// timelines render side by side.
	Tracer *obs.Tracer
	Lane   int
}

// Report accumulates what the passes of one pipeline application did.
// DD and EC accumulate across repeated passes (a double-DD pipeline
// reports the union of both passes' windows and the total pulse count).
type Report struct {
	Pipeline string   // pipeline name
	Applied  []string // pass names in application order
	DD       dd.Report
	EC       caec.Stats
	Duration float64 // scheduled duration of the compiled circuit, ns

	// Layout is the logical -> physical qubit assignment chosen by a
	// layout-selection pass (internal/layout), nil when no layout pass ran.
	Layout []int
	// LayoutScore is that assignment's predicted accumulated coherent
	// error in radians (lower is better).
	LayoutScore float64
	// FinalLayout maps each circuit wire to its physical qubit after
	// routing (SWAPs permute wires); nil when no routing pass ran.
	FinalLayout []int
	// Swaps counts SWAP gates inserted by routing passes.
	Swaps int

	// Engine is the simulation backend that executed this compilation
	// ("statevector" or "stab"), recorded by the executor after engine
	// dispatch; empty when the circuit was compiled but not executed.
	Engine string
}

// Pass is one composable circuit transformation. Apply mutates the circuit
// in place (rebuilding passes swap the new contents into the same
// allocation) and records what it did in ctx.Report.
type Pass interface {
	Name() string
	Apply(ctx *Context, c *circuit.Circuit) error
}

// twirlPass samples one Pauli-twirl instance.
type twirlPass struct{ scope twirl.Scope }

// Twirl returns a pass sampling one Pauli-twirl instance with the scope.
func Twirl(scope twirl.Scope) Pass { return twirlPass{scope} }

func (p twirlPass) Name() string {
	if p.scope == twirl.AllQubits {
		return "twirl:all"
	}
	return "twirl"
}

func (p twirlPass) Apply(ctx *Context, c *circuit.Circuit) error {
	out, err := twirl.Instance(c, p.scope, ctx.Rng)
	if err != nil {
		return err
	}
	*c = *out
	return nil
}

// schedPass assigns start times and durations to every layer.
type schedPass struct{}

// Schedule returns the scheduling pass. DD and EC consume layer timing, so
// a Schedule must precede them in any pipeline.
func Schedule() Pass { return schedPass{} }

func (schedPass) Name() string { return "sched" }

func (schedPass) Apply(ctx *Context, c *circuit.Circuit) error {
	ctx.Report.Duration = sched.Schedule(c, ctx.Dev)
	return nil
}

// needsSchedule guards the timing-consuming passes: on an unscheduled
// circuit they would find no idle windows and silently no-op, so a
// missing Schedule() earlier in the pipeline must be an error, not a
// success with zero pulses.
func needsSchedule(c *circuit.Circuit, pass string) error {
	if c.Depth() > 0 && c.TotalDuration() == 0 {
		return fmt.Errorf("%s requires a scheduled circuit — add a sched pass before it", pass)
	}
	return nil
}

// ddPass inserts dynamical-decoupling pulses (Algorithm 1 when the options
// select the context-aware strategy).
type ddPass struct{ opts dd.Options }

// DD returns a dynamical-decoupling insertion pass.
func DD(opts dd.Options) Pass { return ddPass{opts} }

func (p ddPass) Name() string { return "dd:" + p.opts.Strategy.String() }

func (p ddPass) Apply(ctx *Context, c *circuit.Circuit) error {
	if err := needsSchedule(c, p.Name()); err != nil {
		return err
	}
	rep, err := dd.Insert(c, ctx.Dev, p.opts)
	if err != nil {
		return err
	}
	ctx.Report.DD.Windows = append(ctx.Report.DD.Windows, rep.Windows...)
	ctx.Report.DD.Total += rep.Total
	return nil
}

// ecPass applies context-aware error compensation (Algorithm 2).
type ecPass struct{ opts caec.Options }

// EC returns a context-aware error-compensation pass.
func EC(opts caec.Options) Pass { return ecPass{opts} }

func (ecPass) Name() string { return "ca-ec" }

func (p ecPass) Apply(ctx *Context, c *circuit.Circuit) error {
	if err := needsSchedule(c, "ca-ec"); err != nil {
		return err
	}
	out, stats, err := caec.Apply(c, ctx.Dev, p.opts)
	if err != nil {
		return err
	}
	s := &ctx.Report.EC
	s.VirtualRZ += stats.VirtualRZ
	s.AbsorbedUcan += stats.AbsorbedUcan
	s.AbsorbedCX += stats.AbsorbedCX
	s.InsertedRZZ += stats.InsertedRZZ
	s.Conditional += stats.Conditional
	s.SignFlips += stats.SignFlips
	s.Dropped += stats.Dropped
	s.DroppedAngles += stats.DroppedAngles
	*c = *out
	return nil
}

// Pipeline is an ordered pass composition under a name.
type Pipeline struct {
	Name   string
	Passes []Pass
}

// New composes passes into a named pipeline.
func New(name string, passes ...Pass) Pipeline {
	return Pipeline{Name: name, Passes: passes}
}

// Then returns a new pipeline with the passes appended.
func (p Pipeline) Then(passes ...Pass) Pipeline {
	out := Pipeline{Name: p.Name, Passes: make([]Pass, 0, len(p.Passes)+len(passes))}
	out.Passes = append(out.Passes, p.Passes...)
	out.Passes = append(out.Passes, passes...)
	return out
}

// Named returns a copy of the pipeline under a different name.
func (p Pipeline) Named(name string) Pipeline {
	p.Name = name
	return p
}

// WithTwirlScope returns a copy of the pipeline whose twirl passes sample
// with the given scope (twirl.AllQubits also twirls idle qubits, as the
// layer-fidelity and spectroscopy protocols require). The copy has its
// own Passes slice; the receiver is not modified.
func (p Pipeline) WithTwirlScope(scope twirl.Scope) Pipeline {
	out := Pipeline{Name: p.Name, Passes: make([]Pass, len(p.Passes))}
	for i, ps := range p.Passes {
		if _, ok := ps.(twirlPass); ok {
			ps = Twirl(scope)
		}
		out.Passes[i] = ps
	}
	return out
}

// String lists the pipeline as "name(pass1 -> pass2 -> ...)".
func (p Pipeline) String() string {
	s := p.Name + "("
	for i, ps := range p.Passes {
		if i > 0 {
			s += " -> "
		}
		s += ps.Name()
	}
	return s + ")"
}

// Apply clones the circuit, runs every pass in order, re-schedules so the
// result always carries a valid timing assignment, validates, and returns
// the compiled circuit with the report. The input circuit is not mutated.
func (p Pipeline) Apply(dev *device.Device, rng *rand.Rand, c *circuit.Circuit) (*circuit.Circuit, Report, error) {
	return p.ApplyContext(&Context{Dev: dev, Rng: rng}, c)
}

// ApplyContext is the fully general entry point: the caller assembles
// the Context (device, RNG, tracer/lane), and the pipeline
// initializes the Report and runs. It validates the input first, so no
// pass reads a gate parameter that is missing. Each pass records a
// "pass:<name>" span on ctx.Tracer, so a traced compilation renders its
// pass timeline.
func (p Pipeline) ApplyContext(ctx *Context, c *circuit.Circuit) (*circuit.Circuit, Report, error) {
	ctx.Report = &Report{Pipeline: p.Name}
	if err := c.Validate(); err != nil {
		return nil, *ctx.Report, fmt.Errorf("pass %s: input circuit invalid: %w", p.Name, err)
	}
	out := c.Clone()
	for _, ps := range p.Passes {
		var sp obs.Span
		if ctx.Tracer.Enabled() {
			sp = ctx.Tracer.Start("pass:" + ps.Name()).WithLane(ctx.Lane)
		}
		err := ps.Apply(ctx, out)
		sp.End()
		if err != nil {
			return nil, *ctx.Report, fmt.Errorf("pass %s: %s: %w", p.Name, ps.Name(), err)
		}
		ctx.Report.Applied = append(ctx.Report.Applied, ps.Name())
	}
	// Final normalization: every compiled circuit leaves scheduled, and the
	// recorded duration reflects all inserted gates.
	var sp obs.Span
	if ctx.Tracer.Enabled() {
		sp = ctx.Tracer.Start("pass:sched.final").WithLane(ctx.Lane)
	}
	ctx.Report.Duration = sched.Schedule(out, ctx.Dev)
	sp.End()
	if err := out.Validate(); err != nil {
		return nil, *ctx.Report, fmt.Errorf("pass %s: compiled circuit invalid: %w", p.Name, err)
	}
	return out, *ctx.Report, nil
}

// The six named strategies benchmarked throughout the paper, as canned
// pipelines: twirl -> schedule -> DD -> CA-EC (plus the final normalizing
// schedule Apply always performs). DD runs before CA-EC so that CA-EC sees
// the pulse schedule and compensates only what DD leaves behind (Sec. IV).
// The twirl passes use twirl.GatesOnly; WithTwirlScope retargets them.

// Bare schedules only.
func Bare() Pipeline { return New("bare", Schedule()) }

// Twirled applies Pauli twirling only — the baseline of Figs. 6-8.
func Twirled() Pipeline {
	return New("twirled", Twirl(twirl.GatesOnly), Schedule())
}

// WithDD applies twirling plus the given DD strategy.
func WithDD(s dd.Strategy) Pipeline {
	opts := dd.DefaultOptions()
	opts.Strategy = s
	return New("dd-"+s.String(), Twirl(twirl.GatesOnly), Schedule(), DD(opts))
}

// CADD is the paper's context-aware dynamical decoupling (Algorithm 1).
func CADD() Pipeline { return WithDD(dd.ContextAware).Named("ca-dd") }

// CAEC is the paper's context-aware error compensation (Algorithm 2).
func CAEC() Pipeline {
	return New("ca-ec", Twirl(twirl.GatesOnly), Schedule(), EC(caec.DefaultOptions()))
}

// Combined applies CA-DD first and CA-EC on what DD leaves behind
// (Sec. V E).
func Combined() Pipeline {
	ddOpts := dd.DefaultOptions()
	ddOpts.Strategy = dd.ContextAware
	return New("ca-ec+dd", Twirl(twirl.GatesOnly), Schedule(), DD(ddOpts), EC(caec.DefaultOptions()))
}
