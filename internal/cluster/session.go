package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cdrw/internal/graph"
)

// session is one detection's shard-local state. Sessions are almost
// stateless: each advance request carries the full owned support, so the
// only state crossing rounds is the round counter and the frozen per-peer
// shares the other shards pull.
//
// The round protocol is deadlock-free by construction: advance FREEZES this
// shard's outgoing shares (under mu, briefly) before it starts pulling
// from peers, so two shards pulling from each other both find frozen
// shares waiting — no advance ever blocks on another advance.
//
// Lifecycle: the driver heartbeats every session it opened at the cluster's
// heartbeat interval; lastBeat records the latest heartbeat or advance, and
// the node's reaper drops sessions whose driver has gone silent past the
// TTL. close() — reached via DELETE, eviction or the reaper — unparks every
// shares waiter immediately instead of letting it sit out a freeze wait.
type session struct {
	node  *Node
	id    string
	g     *graph.Graph
	store *Store
	peers []string // rank-ordered advertise URLs
	self  int
	walks int // most walks one advance may carry

	lastBeat atomic.Int64 // unix nanos of the last heartbeat or advance

	// advanceMu serialises rounds: the driver's barrier means at most one
	// advance is ever in flight per session, but the lock keeps a confused
	// driver from corrupting state.
	advanceMu sync.Mutex

	mu          sync.Mutex
	round       int // last completed round
	frozenRound int
	frozen      [][][]entry // per peer rank, per walk; encoded per pull
	frozenC     chan struct{}
	closed      chan struct{}
	closeOnce   sync.Once

	// scratch, reused across rounds (advanceMu makes them single-writer)
	share []float64
	iso   []float64
	mark  []int32
}

func newSession(node *Node, id string, g *graph.Graph, store *Store, peers []string, self, walks int) *session {
	n := g.NumVertices()
	s := &session{
		node:    node,
		id:      id,
		g:       g,
		store:   store,
		peers:   peers,
		self:    self,
		walks:   max(walks, 1),
		frozen:  make([][][]entry, len(peers)),
		frozenC: make(chan struct{}),
		closed:  make(chan struct{}),
		share:   make([]float64, n),
		iso:     make([]float64, n),
	}
	s.touch()
	return s
}

// touch records driver liveness (heartbeats and advances both count).
func (s *session) touch() { s.lastBeat.Store(time.Now().UnixNano()) }

// idle reports how long the driver has been silent.
func (s *session) idle() time.Duration {
	return time.Duration(time.Now().UnixNano() - s.lastBeat.Load())
}

// close tears the session down: every parked shares waiter returns
// immediately with a cluster error. Idempotent.
func (s *session) close() { s.closeOnce.Do(func() { close(s.closed) }) }

// maxAdvanceBytes bounds an advance request body: the codec header plus,
// for each of the session's walks, an entry count and one entry — a vertex
// delta of at most five bytes and eight float bytes — per owned vertex.
func (s *session) maxAdvanceBytes() int64 {
	perWalk := binary.MaxVarintLen64 + len(s.store.owned)*(binary.MaxVarintLen32+8)
	return int64(2 + 2*binary.MaxVarintLen64 + s.walks*perWalk)
}

// advance executes one flood round for this shard: freeze outgoing boundary
// shares, pull the ghost shares this shard's owned vertices read, then
// gather next-step mass for every owned vertex in CSR neighbour order —
// bit-identical to the in-memory kernel's arithmetic.
func (s *session) advance(ctx context.Context, req advanceRequest) (advanceResponse, error) {
	s.advanceMu.Lock()
	defer s.advanceMu.Unlock()
	select {
	case <-s.closed:
		return advanceResponse{}, fmt.Errorf("%w: session %s: closed", errCluster, s.id)
	default:
	}
	s.touch()
	if len(req.Support) > s.walks {
		return advanceResponse{}, fmt.Errorf("%w: session %s: advance carries %d walks, session allows %d", errBadRequest, s.id, len(req.Support), s.walks)
	}
	if req.Round != s.round+1 {
		return advanceResponse{}, fmt.Errorf("%w: session %s: advance round %d after round %d", errCluster, s.id, req.Round, s.round)
	}
	walks := len(req.Support)
	start := time.Now()

	// Freeze: per peer with a shared link, the shares of our boundary
	// vertices that carry mass this round. Shares are frozen as
	// p(v)·(1/d(v)) — the exact product the in-memory kernel computes.
	payloads, err := s.freeze(req)
	if err != nil {
		return advanceResponse{}, err
	}
	s.mu.Lock()
	copy(s.frozen, payloads)
	s.frozenRound = req.Round
	close(s.frozenC)
	s.frozenC = make(chan struct{})
	s.mu.Unlock()
	frozenAt := time.Now()

	// Pull ghost shares from every peer we share a boundary with, in
	// parallel. The pull count is the measured link load.
	remote := make([][][]entry, len(s.peers))
	var wg sync.WaitGroup
	errs := make([]error, len(s.peers))
	for j := range s.peers {
		if !s.store.NeedsPull(j) {
			continue
		}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			remote[j], errs[j] = s.node.pullShares(ctx, s.peers[j], s.id, req.Round, s.self, j, walks)
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return advanceResponse{}, err
		}
	}
	pulledAt := time.Now()

	// Gather: next[u] = Σ share(w) over u's CSR neighbour order; isolated
	// vertices keep their mass.
	resp := advanceResponse{Round: req.Round, Support: make([][]entry, walks)}
	for w := 0; w < walks; w++ {
		s.mark = s.mark[:0]
		for _, e := range req.Support[w] {
			if err := s.checkOwned(e.V); err != nil {
				return advanceResponse{}, err
			}
			v := int(e.V)
			if s.g.Degree(v) == 0 {
				s.iso[v] = e.S
			} else {
				s.share[v] = e.S * s.store.degInv[v]
			}
			s.mark = append(s.mark, e.V)
		}
		for j := range s.peers {
			if remote[j] == nil {
				continue
			}
			for _, e := range remote[j][w] {
				s.share[e.V] = e.S
				s.mark = append(s.mark, e.V)
			}
		}
		var out []entry
		for _, u := range s.store.owned {
			uu := int(u)
			var sum float64
			if s.g.Degree(uu) == 0 {
				sum = s.iso[uu]
			} else {
				for _, nb := range s.g.Neighbors(uu) {
					sum += s.share[nb]
				}
			}
			if sum != 0 {
				out = append(out, entry{V: u, S: sum})
			}
		}
		resp.Support[w] = out
		for _, v := range s.mark {
			s.share[v] = 0
			s.iso[v] = 0
		}
	}
	s.round = req.Round
	// Stage attribution: histograms on this shard's /metrics, exact
	// nanoseconds back to the driver for its trace's per-shard spans.
	freeze, pull := frozenAt.Sub(start), pulledAt.Sub(frozenAt)
	gather := time.Since(pulledAt)
	s.node.metrics.observeRoundStages(freeze, pull, gather)
	resp.T = advanceTiming{
		FreezeNS: freeze.Nanoseconds(),
		PullNS:   pull.Nanoseconds(),
		GatherNS: gather.Nanoseconds(),
	}
	return resp, nil
}

// freeze collects, per peer, the non-zero boundary shares of every walk.
// Entries come out in boundary-list order — ascending vertex id — which the
// binary codec's delta coding relies on.
//
// s.share doubles as the mass scratch here. The aliasing is safe because of
// a zero-in/zero-out invariant: advance's gather phase (the other writer)
// runs strictly after freeze returns and restores every touched slot to 0
// before finishing the round, and freeze itself unmarks each walk's support
// before moving to the next, so the buffer is all-zero whenever either
// phase starts.
func (s *session) freeze(req advanceRequest) ([][][]entry, error) {
	n := s.g.NumVertices()
	walks := len(req.Support)
	for _, sup := range req.Support {
		for _, e := range sup {
			if e.V < 0 || int(e.V) >= n {
				return nil, fmt.Errorf("%w: session %s: support vertex %d out of range", errCluster, s.id, e.V)
			}
		}
	}
	payloads := make([][][]entry, len(s.peers))
	scratch := s.share
	for j := range s.peers {
		if j == s.self || len(s.store.Boundary(j)) == 0 {
			continue
		}
		shares := make([][]entry, walks)
		for w := 0; w < walks; w++ {
			// Mass-mark this walk's support, emit its boundary shares, unmark.
			for _, e := range req.Support[w] {
				scratch[e.V] = e.S
			}
			var out []entry
			for _, v := range s.store.Boundary(j) {
				if mass := scratch[v]; mass != 0 {
					out = append(out, entry{V: v, S: mass * s.store.degInv[v]})
				}
			}
			for _, e := range req.Support[w] {
				scratch[e.V] = 0
			}
			shares[w] = out
		}
		payloads[j] = shares
	}
	return payloads, nil
}

// checkOwned rejects walk state routed to the wrong owner.
func (s *session) checkOwned(v int32) error {
	if v < 0 || int(v) >= len(s.store.assign.Home) || s.store.assign.Home[v] != s.store.rank {
		return fmt.Errorf("%w: session %s: vertex %d not owned by rank %d", errCluster, s.id, v, s.store.rank)
	}
	return nil
}

// shares serves one peer's frozen shares for one round, waiting for the
// local advance of that round to freeze them first. The wait is bounded by
// the peer deadline — the slack between the driver's parallel advance POSTs
// landing on different shards is milliseconds, so a freeze that has not
// happened within PeerTimeout means the driver or a shard is gone, and
// parking longer would only wedge the puller's own advance.
func (s *session) shares(ctx context.Context, round, to int) ([][]entry, error) {
	if to < 0 || to >= len(s.peers) {
		return nil, fmt.Errorf("%w: session %s: peer rank %d out of range", errBadRequest, s.id, to)
	}
	s.touch()
	deadline := time.NewTimer(s.node.peerTimeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		if s.frozenRound == round {
			shares := s.frozen[to]
			s.mu.Unlock()
			if shares == nil {
				return nil, fmt.Errorf("%w: session %s: no boundary toward rank %d", errCluster, s.id, to)
			}
			return shares, nil
		}
		if s.frozenRound > round {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: session %s: round %d already superseded by %d", errCluster, s.id, round, s.frozenRound)
		}
		c := s.frozenC
		s.mu.Unlock()
		select {
		case <-c:
		case <-s.closed:
			return nil, fmt.Errorf("%w: session %s: closed while waiting for round %d shares", errCluster, s.id, round)
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: session %s: waiting for round %d shares: %v", errCluster, s.id, round, ctx.Err())
		case <-deadline.C:
			return nil, fmt.Errorf("%w: session %s: round %d shares never froze within %v", errCluster, s.id, round, s.node.peerTimeout)
		}
	}
}
