// Package cluster executes the k-machine model of §III-B over real sockets:
// k cdrwd shards agree on a deterministic hash-based vertex placement
// (kmachine.HashPartition), hold the walk state of their owned vertices, and
// advance the CONGEST engine's probability-flooding rounds by exchanging one
// coalesced share frame per machine link per round, on one long-lived
// stream per ordered shard pair (link.go) — the coalesced realisation of
// the Conversion Theorem's message routing, whose measured per-link wire
// load is validated against the simulator's predicted link loads.
//
// The division of labour mirrors the congest/kmachine split: the congest
// package keeps ALL simulated accounting (rounds, messages, link loads — the
// predicted side), while this package only moves the numeric walk state
// between owners (the measured side). The flood transport contract
// (congest.FloodTransport) requires bit-identical evolution, so a cluster
// detection returns byte-for-byte the same Result as a single-process run.
package cluster

import (
	"fmt"

	"cdrw/internal/graph"
	"cdrw/internal/kmachine"
)

// Store is one shard's view of a placed graph: the vertices it owns and, per
// peer machine, the owned boundary vertices whose shares that peer needs
// each round. The CSR itself is replicated on every shard (graphs are
// registered on each daemon); what is partitioned is the walk state — each
// round a shard computes next-step mass only for its owned vertices, reading
// ghost shares sent by the peers that own the other endpoints of its
// boundary edges.
type Store struct {
	g      *graph.Graph
	assign kmachine.Assignment
	rank   int

	owned    []int32
	ownedBy  []int     // ownedBy[j]: vertices homed on machine j
	boundary [][]int32 // boundary[j]: owned v with ≥1 neighbour homed on machine j
	degInv   []float64 // 1/d(v) for owned v (0 for isolated), indexed by vertex id
}

// NewStore builds the shard-local view for machine rank under the given
// assignment.
func NewStore(g *graph.Graph, assign kmachine.Assignment, rank int) (*Store, error) {
	n := g.NumVertices()
	if len(assign.Home) != n {
		return nil, fmt.Errorf("cluster: assignment covers %d vertices, graph has %d", len(assign.Home), n)
	}
	if rank < 0 || rank >= assign.K {
		return nil, fmt.Errorf("cluster: rank %d out of range [0,%d)", rank, assign.K)
	}
	s := &Store{
		g:        g,
		assign:   assign,
		rank:     rank,
		ownedBy:  make([]int, assign.K),
		boundary: make([][]int32, assign.K),
		degInv:   make([]float64, n),
	}
	peerSeen := make([]bool, assign.K)
	for v := 0; v < n; v++ {
		s.ownedBy[assign.Home[v]]++
		if assign.Home[v] != rank {
			continue
		}
		s.owned = append(s.owned, int32(v))
		if d := g.Degree(v); d > 0 {
			s.degInv[v] = 1 / float64(d)
		}
		for j := range peerSeen {
			peerSeen[j] = false
		}
		for _, w := range s.g.Neighbors(v) {
			j := assign.Home[w]
			if j != rank && !peerSeen[j] {
				peerSeen[j] = true
				s.boundary[j] = append(s.boundary[j], int32(v))
			}
		}
	}
	return s, nil
}

// Boundary returns this shard's owned vertices that have at least one
// neighbour homed on machine j — exactly the vertices whose shares machine j
// must read each flood round.
func (s *Store) Boundary(j int) []int32 { return s.boundary[j] }

// NeedsPull reports whether this shard reads shares from machine j each
// round. The graph is undirected, so j holds a boundary vertex toward us iff
// we hold one toward j — the link is used in both directions or not at all.
func (s *Store) NeedsPull(j int) bool { return j != s.rank && len(s.boundary[j]) > 0 }
