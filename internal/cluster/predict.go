package cluster

import (
	"context"

	"cdrw/internal/congest"
	"cdrw/internal/core"
	"cdrw/internal/graph"
	"cdrw/internal/kmachine"
)

// PredictCommunity replays the detection of seed's community single-process
// under the Conversion-Theorem simulator with the same resolved settings and
// vertex placement, and returns its k-machine accounting — the predicted
// side the cluster's measured wire counters are validated against. Because
// both sides run the identical deterministic execution, Results.MaxLinkLoad
// is the per-round word load of the most congested machine link that naive
// per-edge message routing would pay; the cluster's coalesced payloads (one
// share per boundary vertex per link, not one per edge) must measure at or
// below it. A sequential full run's MaxLinkLoad is the maximum of its
// seeds' predictions: its walks never share a round, and MaxLinkLoad is a
// per-round maximum.
func PredictCommunity(ctx context.Context, g *graph.Graph, assign kmachine.Assignment, seed int, settings core.Settings) (kmachine.Results, error) {
	sim, err := kmachine.NewSimulator(assign, 1)
	if err != nil {
		return kmachine.Results{}, err
	}
	nw := congest.NewNetwork(g)
	cfg := settings.CongestConfig()
	err = sim.Run(ctx, nw, func(ctx context.Context) error {
		_, _, runErr := congest.DetectCommunityContext(ctx, nw, seed, cfg)
		return runErr
	})
	return sim.Results(), err
}
