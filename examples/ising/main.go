// Ising: the paper's Fig. 6 workload — Floquet evolution of a 6-qubit Ising
// chain at the Clifford point, where the boundary correlator <X0 X5>
// ideally oscillates between +1 and -1. Compares twirling-only against the
// context-aware strategies, each lowered to a pass pipeline and run on the
// concurrent executor. The full harness is fig6 in cmd/experiments.
package main

import (
	"context"
	"fmt"
	"log"

	"casq/internal/device"
	"casq/internal/exec"
	"casq/internal/models"
	"casq/internal/pass"
	"casq/internal/sim"
)

func main() {
	devOpts := device.DefaultOptions()
	devOpts.Seed = 37
	dev := device.NewLine("ising6", 6, devOpts)
	obs := []sim.ObsSpec{{0: 'X', 5: 'X'}}

	pipelines := []pass.Pipeline{pass.Twirled(), pass.CAEC(), pass.CADD()}
	executors := make([]*exec.Executor, len(pipelines))
	for i, pl := range pipelines {
		executors[i] = exec.New(dev, pl)
	}

	fmt.Println("Floquet Ising chain, <X0 X5> per step (ideal oscillates +1/-1):")
	fmt.Printf("%4s %8s %10s %10s %10s\n", "d", "ideal", "twirled", "ca-ec", "ca-dd")
	for d := 1; d <= 8; d++ {
		c := models.BuildFloquetIsing(6, d)
		ideal, err := exec.IdealExpectations(dev, c, obs)
		if err != nil {
			log.Fatal(err)
		}
		row := []float64{ideal[0]}
		for _, ex := range executors {
			cfg := sim.DefaultConfig()
			cfg.Shots = 200
			cfg.Seed = int64(d)
			cfg.EnableReadoutErr = false
			vals, err := ex.Expectations(context.Background(), c, obs,
				exec.RunOptions{Instances: 8, Seed: int64(100 + d), Cfg: cfg})
			if err != nil {
				log.Fatal(err)
			}
			row = append(row, vals[0])
		}
		fmt.Printf("%4d %+8.3f %+10.3f %+10.3f %+10.3f\n", d, row[0], row[1], row[2], row[3])
	}
}
