// Quickstart: build a small layered circuit, compile it with the combined
// context-aware strategy (CA-DD + CA-EC), and compare noisy expectation
// values against the uncompiled circuit on the synthetic backend — then
// compose a custom pipeline (EC before DD) that the fixed strategies
// cannot express.
package main

import (
	"context"
	"fmt"
	"log"

	"casq"
)

func main() {
	// A 4-qubit line device with paper-like calibration (always-on ZZ of
	// 40-90 kHz, Stark shifts, charge parity, T1/T2, gate errors).
	dev := casq.NewLineDevice("quickstart", 4, casq.DefaultDeviceOptions())

	// A toy workload: boundary qubits in |+>, three ECR layers with idle
	// periods — the contexts of paper Fig. 3 in miniature.
	build := func() *casq.Circuit {
		c := casq.NewCircuit(4, 0)
		c.AddLayer(casq.OneQubitLayer).H(0).H(3)
		for i := 0; i < 3; i++ {
			c.AddLayer(casq.TwoQubitLayer).ECR(1, 2) // qubits 0 and 3 idle
		}
		return c
	}

	obs := []casq.Observable{{0: 'X'}, {3: 'X'}}
	cfg := casq.DefaultSimConfig()
	cfg.Shots = 400

	// The paper's named strategies are canned pipelines, run on the
	// concurrent executor (results are identical for any worker count).
	for _, pl := range []casq.Pipeline{casq.Twirled(), casq.CADD(), casq.CAEC(), casq.Combined()} {
		ex := casq.NewExecutor(dev, pl)
		vals, err := ex.Expectations(context.Background(), build(), obs,
			casq.ExecOptions{Instances: 8, Seed: 7, Cfg: cfg})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s  <X0> = %+.4f   <X3> = %+.4f   (ideal: +1, +1)\n", pl.Name, vals[0], vals[1])
	}

	// A custom composition the fixed strategies cannot express: error
	// compensation first, then DD on the compensated schedule.
	custom := casq.NewPipeline("ec-then-dd",
		casq.TwirlPass(casq.TwirlGatesOnly),
		casq.SchedulePass(),
		casq.ECPass(casq.DefaultECOptions()),
		casq.SchedulePass(),
		casq.DDPass(casq.DefaultDDOptions()),
	)
	ex := casq.NewExecutor(dev, custom)
	vals, err := ex.Expectations(context.Background(), build(), obs,
		casq.ExecOptions{Instances: 8, Seed: 7, Cfg: cfg})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s  <X0> = %+.4f   <X3> = %+.4f   (custom pipeline)\n", custom.Name, vals[0], vals[1])

	// Show what the compiler actually did to one twirl instance.
	compiled, rep, err := casq.Compile(dev, casq.Combined(), build(), 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncombined strategy (%v): %d DD pulses, %d virtual Rz, %d absorbed ZZ, duration %.0f ns\n",
		rep.Applied, rep.DD.Total, rep.EC.VirtualRZ,
		rep.EC.AbsorbedUcan+rep.EC.AbsorbedCX+rep.EC.InsertedRZZ, rep.Duration)
	fmt.Println(compiled.Draw())
}
