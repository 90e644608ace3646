package cluster

import (
	"context"
	"reflect"
	"testing"

	"cdrw/internal/congest"
	"cdrw/internal/core"
	"cdrw/internal/graph"
	"cdrw/internal/kmachine"
)

// wireOracle is an in-process flood transport that evolves the walks with
// the shards' arithmetic and records the wire the cluster must carry for
// the same execution: in each round, link i→j carries one word per walk
// for every support vertex homed on i with a neighbour homed on j (the
// share that vertex's owner sends j).
type wireOracle struct {
	g      *graph.Graph
	assign kmachine.Assignment
	toward [][]int // toward[v]: machines other than v's home holding a neighbour of v

	share   []float64
	words   []int64 // k*k totals, from*k+to
	maxWord int64   // largest single-round load on one link
}

func newWireOracle(g *graph.Graph, assign kmachine.Assignment) *wireOracle {
	o := &wireOracle{
		g:      g,
		assign: assign,
		toward: make([][]int, g.NumVertices()),
		share:  make([]float64, g.NumVertices()),
		words:  make([]int64, assign.K*assign.K),
	}
	for v := range o.toward {
		seen := make([]bool, assign.K)
		for _, w := range g.Neighbors(v) {
			if j := assign.Home[w]; j != assign.Home[v] && !seen[j] {
				seen[j] = true
				o.toward[v] = append(o.toward[v], j)
			}
		}
	}
	return o
}

func (o *wireOracle) Flood(_ context.Context, frames []congest.FloodFrame) error {
	k := o.assign.K
	round := make([]int64, k*k)
	for _, f := range frames {
		for v, p := range f.P {
			if p == 0 {
				continue
			}
			for _, j := range o.toward[v] {
				round[o.assign.Home[v]*k+j]++
			}
			if d := o.g.Degree(v); d > 0 {
				o.share[v] = p * (1 / float64(d))
			}
		}
		for u := range f.Next {
			if o.g.Degree(u) == 0 {
				f.Next[u] = f.P[u]
				continue
			}
			var sum float64
			for _, w := range o.g.Neighbors(u) {
				sum += o.share[w]
			}
			f.Next[u] = sum
		}
		clear(o.share)
	}
	for l, w := range round {
		o.words[l] += w
		o.maxWord = max(o.maxWord, w)
	}
	return nil
}

// clusterLinkWords sums the shards' per-link word counters (each shard
// counts the links into it).
func clusterLinkWords(nodes []*Node) []int64 {
	var out []int64
	for _, n := range nodes {
		n.metrics.mu.Lock()
		if out == nil {
			out = make([]int64, len(n.metrics.linkWords))
		}
		for l, w := range n.metrics.linkWords {
			out[l] += w
		}
		n.metrics.mu.Unlock()
	}
	return out
}

// TestClusterWireMatchesModel holds the measured wire to its closed form:
// for solo, batched and depth-limited detections over 3 shards, every
// link's word total and the largest per-round link load equal what the
// oracle computes from the same execution in process. A dropped,
// duplicated or misrouted share changes a link's count and fails here.
func TestClusterWireMatchesModel(t *testing.T) {
	g := clusterTestGraph(t)
	const placementSeed = 42
	assign, err := hashAssign(g.NumVertices(), 3, placementSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []core.Option
	}{
		{"solo", []core.Option{core.WithSeed(9)}},
		{"batched", []core.Option{core.WithSeed(9), core.WithCongestBatch(4)}},
		{"depth-limited", []core.Option{core.WithSeed(3), core.WithTreeDepthLimit(3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]core.Option{core.WithEngine(core.EngineCongest)}, tc.opts...)
			oracle := newWireOracle(g, assign)
			det, err := core.NewDetector(g, append(opts, core.WithCongestTransport(oracle))...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := det.Detect(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			plain, err := core.NewDetector(g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if ref, err := plain.Detect(context.Background()); err != nil || !reflect.DeepEqual(ref, want) {
				t.Fatalf("oracle transport diverged from the in-memory kernel (err %v)", err)
			}

			cl := startCluster(t, 3, placementSeed)
			cl.register(t, "ppm", g)
			got, _, handled, err := cl.nodes[1].Detect(context.Background(), "ppm", opts...)
			if err != nil || !handled {
				t.Fatalf("cluster detect: handled=%v err=%v", handled, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("cluster result diverged from the in-process run")
			}
			links := clusterLinkWords(cl.nodes)
			var total int64
			for l, w := range oracle.words {
				total += w
				if links[l] != w {
					t.Errorf("link %d→%d carried %d words, model says %d", l/3, l%3, links[l], w)
				}
			}
			if total == 0 {
				t.Fatal("model predicts no wire words: no share crossed a link")
			}
			var measured int64
			for _, n := range cl.nodes {
				measured = max(measured, n.Metrics().MaxLinkWords())
			}
			if measured != oracle.maxWord {
				t.Errorf("MaxLinkWords %d, model says %d", measured, oracle.maxWord)
			}
		})
	}
}
