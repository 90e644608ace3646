// Package kmachine implements the k-machine (Big Data) model of Klauck,
// Nanongkai, Pandurangan & Robinson (SODA 2015) as used in §III-B of the
// paper: the input graph is partitioned across k machines by the random
// vertex partition (RVP), machines communicate point-to-point with
// per-link bandwidth B bits per round, and a CONGEST algorithm is simulated
// by routing every CONGEST message between the home machines of its
// endpoints.
//
// The simulator consumes the per-round link loads of a congest.Network (via
// its LoadObserver) and charges, for every CONGEST round, ⌈L/B⌉ k-machine
// rounds where L is the load (in messages of one O(log n)-bit word) of the
// most congested machine link — exactly the simulation argument of the
// Conversion Theorem (part a).
package kmachine

import (
	"context"
	"fmt"

	"cdrw/internal/congest"
	"cdrw/internal/rng"
)

// Assignment maps each vertex to its home machine.
type Assignment struct {
	// Home[v] is the machine hosting vertex v, in [0, K).
	Home []int
	// K is the number of machines.
	K int
}

// RandomVertexPartition assigns each of n vertices independently and
// uniformly to one of k machines (the RVP model of §I-B; real systems
// implement it by hashing vertex ids).
func RandomVertexPartition(n, k int, r *rng.RNG) (Assignment, error) {
	if k < 2 {
		return Assignment{}, fmt.Errorf("kmachine: need at least 2 machines, got %d", k)
	}
	if n < 0 {
		return Assignment{}, fmt.Errorf("kmachine: negative vertex count %d", n)
	}
	home := make([]int, n)
	for v := range home {
		home[v] = r.Intn(k)
	}
	return Assignment{Home: home, K: k}, nil
}

// HashPartition deterministically assigns each of n vertices to one of k
// machines by hashing the vertex id through a SplitMix64-style finalizer
// keyed on seed. It is the reproducible realisation of the RVP model
// ("real systems implement it by hashing vertex ids"): every machine
// computes the same assignment from (n, k, seed) alone, with no shared RNG
// state and no coordination — which is what lets a cluster of shards agree
// on vertex ownership before exchanging a single message. The per-vertex
// placement is uniform over machines up to hash bias, so the balance and
// link-load properties of the RVP analysis carry over (the property test
// pins the balance bound).
func HashPartition(n, k int, seed uint64) (Assignment, error) {
	if k < 2 {
		return Assignment{}, fmt.Errorf("kmachine: need at least 2 machines, got %d", k)
	}
	if n < 0 {
		return Assignment{}, fmt.Errorf("kmachine: negative vertex count %d", n)
	}
	home := make([]int, n)
	for v := range home {
		home[v] = int(hashVertex(uint64(v), seed) % uint64(k))
	}
	return Assignment{Home: home, K: k}, nil
}

// hashVertex mixes one vertex id with the placement seed. The finalizer is
// SplitMix64's output function (the same mixer internal/rng seeds with),
// applied to the id offset by the golden-ratio increment so consecutive ids
// land in unrelated cells.
func hashVertex(v, seed uint64) uint64 {
	z := seed + (v+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// MachineSizes returns how many vertices live on each machine.
func (a Assignment) MachineSizes() []int {
	sizes := make([]int, a.K)
	for _, m := range a.Home {
		sizes[m]++
	}
	return sizes
}

// Results reports the cost of simulating a CONGEST execution on k machines.
type Results struct {
	// Rounds is the k-machine round count: Σ over CONGEST rounds of
	// ⌈max-link-load / B⌉.
	Rounds int64
	// CongestRounds is the number of CONGEST rounds observed.
	CongestRounds int
	// TotalMessages counts all CONGEST messages.
	TotalMessages int64
	// CrossMessages counts messages whose endpoints live on different
	// machines (the only ones that cost bandwidth).
	CrossMessages int64
	// MaxLinkLoad is the largest per-round load seen on any machine link.
	MaxLinkLoad int64
}

// Simulator converts a CONGEST execution's link loads into k-machine rounds.
// Install its LoadObserver on a congest.Network (or wrap the run in Run),
// run the algorithm, then read Results.
type Simulator struct {
	assign  Assignment
	b       int // link bandwidth in messages (words) per round
	loads   []int64
	touched []int
	res     Results
}

// NewSimulator creates a converter for the given vertex assignment and link
// bandwidth B expressed in messages (one O(log n)-bit word each) per round.
func NewSimulator(assign Assignment, bandwidth int) (*Simulator, error) {
	if assign.K < 2 {
		return nil, fmt.Errorf("kmachine: assignment has %d machines", assign.K)
	}
	if bandwidth < 1 {
		return nil, fmt.Errorf("kmachine: bandwidth %d must be ≥ 1 word/round", bandwidth)
	}
	return &Simulator{
		assign: assign,
		b:      bandwidth,
		loads:  make([]int64, assign.K*assign.K),
	}, nil
}

// LoadObserver returns the congest.LoadObserver to install on the network
// (Network.SetLoadObserver). Each round arrives as per-link aggregate word
// counts — in a batched CONGEST execution one entry stands for a whole
// batch's words on that link — so the per-machine-link prefix sums behind
// Results.Rounds and MaxLinkLoad cost one home lookup per link instead of
// one per word.
func (s *Simulator) LoadObserver() congest.LoadObserver {
	return func(round int, loads []congest.LinkLoad) {
		s.res.CongestRounds++
		for _, ld := range loads {
			w := int64(ld.Words)
			s.res.TotalMessages += w
			mi := s.assign.Home[ld.From]
			mj := s.assign.Home[ld.To]
			if mi == mj {
				continue // co-located endpoints: free
			}
			s.res.CrossMessages += w
			idx := mi*s.assign.K + mj
			if s.loads[idx] == 0 {
				s.touched = append(s.touched, idx)
			}
			s.loads[idx] += w
		}
		s.closeRound()
	}
}

// closeRound folds the round's per-link loads into the conversion: the most
// congested machine link costs ⌈load/B⌉ k-machine rounds (Conversion
// Theorem, part a).
func (s *Simulator) closeRound() {
	var maxLoad int64
	for _, idx := range s.touched {
		if s.loads[idx] > maxLoad {
			maxLoad = s.loads[idx]
		}
		s.loads[idx] = 0
	}
	s.touched = s.touched[:0]
	if maxLoad > s.res.MaxLinkLoad {
		s.res.MaxLinkLoad = maxLoad
	}
	s.res.Rounds += (maxLoad + int64(s.b) - 1) / int64(s.b)
}

// Results returns the accumulated conversion results.
func (s *Simulator) Results() Results { return s.res }

// Run installs the simulator's load observer on nw for the duration of one
// ctx-aware runner — typically a closure over congest.DetectContext or
// congest.DetectCommunityContext — and forwards ctx so the observed
// execution is cancellable. The load observer installed before (if any) is
// replaced for the run, so a caller's own sim.LoadObserver() cannot fold
// every round into the results twice, and restored afterwards. Conversion
// results accumulate across Run calls; read them with Results.
func (s *Simulator) Run(ctx context.Context, nw *congest.Network, run func(context.Context) error) error {
	prev := nw.LoadObserver()
	nw.SetLoadObserver(s.LoadObserver())
	defer nw.SetLoadObserver(prev)
	return run(ctx)
}

// ConversionBound returns the Conversion Theorem's upper bound
// Õ(M/(k²·B) + ∆·T/(k·B)) on the k-machine rounds needed to simulate a
// CONGEST execution with M messages, T rounds and maximum degree ∆ (the
// polylog factor is omitted — callers compare shapes, not constants).
func ConversionBound(messages int64, rounds, maxDegree, k, bandwidth int) float64 {
	kk := float64(k)
	b := float64(bandwidth)
	return float64(messages)/(kk*kk*b) + float64(maxDegree)*float64(rounds)/(kk*b)
}
