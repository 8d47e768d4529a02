// Layer fidelity: the paper's Fig. 8 benchmark — the layer fidelity of a
// sparse 10-qubit layer (3 ECR gates, 4 idle qubits, one adjacent-control
// pair) under the four suppression strategies, and the resulting PEC
// sampling-overhead base gamma = LF^-2.
package main

import (
	"fmt"
	"log"

	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/layerfid"
	"casq/internal/pass"
)

func main() {
	devOpts := device.DefaultOptions()
	devOpts.Seed = 47
	devOpts.ZZMin, devOpts.ZZMax = 90e3, 160e3
	devOpts.Err2Q = 1.1e-2
	devOpts.QuasistaticSigma = 3e3
	devOpts.ZZOverride = []device.EdgeRate{{A: 1, B: 2, Hz: 230e3}} // near-collision Ctrl-Ctrl pair (Q37-Q38)
	dev, layer, labels := layerfid.BenchmarkLayerDevice(devOpts)

	fmt.Println("benchmark layer: ECR(37->52), ECR(38->39), ECR(58->57); idle 40, 56, 59, 60")
	fmt.Printf("qubit labels: %v\n\n", labels)

	opts := layerfid.DefaultOptions()
	opts.Shots = 40
	opts.Instances = 4
	opts.Workers = 0 // fan twirl instances across GOMAXPROCS workers
	opts.PauliRounds = 8

	fmt.Printf("%-12s %8s %8s   %s\n", "strategy", "LF", "gamma", "per-partition process fidelities")
	for _, pl := range []pass.Pipeline{pass.Twirled(), pass.WithDD(dd.Aligned), pass.CADD(), pass.CAEC()} {
		// Measure twirls every qubit of the strategy's pipeline and runs
		// the twirl instances on the concurrent executor.
		fmt.Printf("# %v\n", pl)
		res, err := layerfid.Measure(dev, layer, pl, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %8.3f %8.2f  ", pl.Name, res.LF, res.Gamma)
		for _, p := range res.Partitions {
			fmt.Printf(" %s=%.3f", p.Partition.Label, p.Fidelity)
		}
		fmt.Println()
	}
	fmt.Println("\npaper values: bare 0.648/2.38, DD 0.743/1.81, CA-DD 0.822/1.48, CA-EC 0.881/1.29")
}
