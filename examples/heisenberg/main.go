// Heisenberg: the paper's Fig. 7 workload — first-order Trotterized
// dynamics of a 12-spin Heisenberg ring built from canonical two-qubit
// gates Ucan (paper Eq. 5) in three colored layers per step. CA-EC absorbs
// the idle-pair ZZ corrections into neighboring Heisenberg interactions at
// zero cost; the example prints the recovered <Z2> dynamics and the
// estimated error-mitigation overhead per strategy.
package main

import (
	"context"
	"fmt"
	"log"

	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/exec"
	"casq/internal/fitting"
	"casq/internal/models"
	"casq/internal/pass"
	"casq/internal/sim"
)

func main() {
	devOpts := device.DefaultOptions()
	devOpts.Seed = 43
	dev := device.NewRing("heisenberg12", 12, devOpts)
	params := models.DefaultHeisenberg()
	obs := []sim.ObsSpec{{2: 'Z'}}
	depths := []int{1, 2, 3, 4, 5}

	pipelines := []pass.Pipeline{pass.Twirled(), pass.WithDD(dd.Aligned), pass.CADD(), pass.CAEC()}
	fmt.Println("Heisenberg ring (12 spins), <Z2> per Trotter step:")
	fmt.Printf("%4s %8s", "d", "ideal")
	for _, pl := range pipelines {
		fmt.Printf(" %10s", pl.Name)
	}
	fmt.Println()

	meas := map[string][]float64{}
	var ds, ideals []float64
	for _, d := range depths {
		c := models.BuildHeisenbergRing(12, d, params)
		iv, err := exec.IdealExpectations(dev, c, obs)
		if err != nil {
			log.Fatal(err)
		}
		ds = append(ds, float64(d))
		ideals = append(ideals, iv[0])
		fmt.Printf("%4d %+8.3f", d, iv[0])
		for _, pl := range pipelines {
			ex := exec.New(dev, pl)
			cfg := sim.DefaultConfig()
			cfg.Shots = 120
			cfg.Seed = int64(d) * 31
			cfg.EnableReadoutErr = false
			vals, err := ex.Expectations(context.Background(), c, obs,
				exec.RunOptions{Instances: 6, Seed: int64(10 * d), Cfg: cfg})
			if err != nil {
				log.Fatal(err)
			}
			meas[pl.Name] = append(meas[pl.Name], vals[0])
			fmt.Printf(" %+10.3f", vals[0])
		}
		fmt.Println()
	}

	fmt.Println("\nglobal-depolarizing fits and mitigation overhead at d=5 (paper Fig. 7d):")
	for _, pl := range pipelines {
		amp, lambda, _, err := fitting.ScaledIdeal(ds, ideals, meas[pl.Name])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s A=%.3f lambda=%.4f overhead=%.2f\n",
			pl.Name, amp, lambda, fitting.SamplingOverhead(amp, lambda, 5))
	}
}
