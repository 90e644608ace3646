// k-machine scaling: partition the input graph over k machines with the
// random vertex partition and convert the CONGEST execution of CDRW into
// k-machine rounds via the Conversion Theorem — showing the §III-B claim
// that round complexity drops roughly quadratically in k on sparse graphs.
// The converter's Run method scopes its observer to one ctx-aware runner,
// so the conversion composes with cancellation like every other entry
// point.
package main

import (
	"context"
	"fmt"
	"log"

	"cdrw"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const blockSize = 256
	s := float64(blockSize)
	cfg := cdrw.PPMConfig{N: 2 * blockSize, R: 2, P: 2 * 8.0 / s, Q: 0.1 / s}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(5))
	if err != nil {
		return err
	}

	fmt.Printf("%-4s %-10s %-12s %-12s\n", "k", "rounds", "cross-msgs", "max-link-load")
	var base int64
	for _, k := range []int{2, 4, 8, 16} {
		assign, err := cdrw.RandomVertexPartition(2*blockSize, k, cdrw.NewRNG(uint64(k)))
		if err != nil {
			return err
		}
		sim, err := cdrw.NewKMachineSimulator(assign, 1)
		if err != nil {
			return err
		}
		nw := cdrw.NewCongestNetwork(ppm.Graph)
		ccfg := cdrw.DefaultCongestConfig(2 * blockSize)
		ccfg.Delta = cfg.ExpectedConductance()
		err = sim.Run(context.Background(), nw, func(ctx context.Context) error {
			_, _, err := cdrw.CongestDetectCommunityContext(ctx, nw, 0, ccfg)
			return err
		})
		if err != nil {
			return err
		}
		res := sim.Results()
		if k == 2 {
			base = res.Rounds
		}
		fmt.Printf("%-4d %-10d %-12d %-12d  speedup vs k=2: %.2fx\n",
			k, res.Rounds, res.CrossMessages, res.MaxLinkLoad,
			float64(base)/float64(res.Rounds))
	}
	fmt.Println("\nrounds fall super-linearly in k on this sparse PPM — the k⁻² regime of §III-B.")
	return nil
}
