package cluster

import (
	"context"
	"fmt"

	"cdrw/internal/congest"
	"cdrw/internal/kmachine"
)

// hashAssign wraps the deterministic placement with the cluster error class.
func hashAssign(n, k int, seed uint64) (kmachine.Assignment, error) {
	assign, err := kmachine.HashPartition(n, k, seed)
	if err != nil {
		return kmachine.Assignment{}, fmt.Errorf("%w: %v", errCluster, err)
	}
	return assign, nil
}

// roundTransport is the driver side of the round protocol: it implements
// congest.FloodTransport, so the CONGEST engine on the shard that received
// the client request runs the unmodified Algorithm 1 — BFS tree, mixing-set
// ladder, stop rule, all simulated accounting — while every flood round's
// numeric work is routed to the vertex owners. A round's Start splits each
// walk's support by owner, writes one advance frame to every remote shard
// and runs the first half of its own shard's advance: freeze, and write its
// share frames. The round's finish runs the second half — wait for the
// peers' share frames and gather — then waits for the remote shards' reply
// frames and merges the owned next-step supports back into the frames.
// Between the two the engine may run a mixing-set ladder: the remote shards
// and the links carry the round meanwhile.
type roundTransport struct {
	node   *Node
	sid    string
	assign kmachine.Assignment
	peers  []string
	self   int
	round  int
	local  *session

	// stats accumulates each shard's reported stage nanoseconds across the
	// detection's rounds; the driver folds them into the request trace as
	// one span per rank when it cleans up. Written only by a round's
	// finish, and rounds never overlap, so no locking.
	stats []shardStat
}

// shardStat is one shard's accumulated advance timing over a detection.
type shardStat struct {
	freezeNS int64
	pullNS   int64
	gatherNS int64
	rounds   int
}

func (t *roundTransport) Start(ctx context.Context, frames []congest.FloodFrame) (func() error, error) {
	t.round++
	walks := len(frames)
	reqs := make([]advanceRequest, len(t.peers))
	for m := range reqs {
		reqs[m] = advanceRequest{Round: t.round, Support: make([][]entry, walks)}
	}
	for w, f := range frames {
		for v, mass := range f.P {
			if mass == 0 {
				continue
			}
			m := t.assign.Home[v]
			reqs[m].Support[w] = append(reqs[m].Support[w], entry{V: int32(v), S: mass})
		}
	}

	// Every remote shard has its advance before the driver's own shard
	// freezes, so all shards freeze and exchange shares at once. The reply
	// frames are counted as they arrive.
	for m, req := range reqs {
		if m == t.self {
			continue
		}
		payload, err := req.encode()
		if err != nil {
			return nil, err
		}
		size, err := t.node.send(t.peers[m], t.sid, payload)
		if err != nil {
			return nil, err
		}
		t.node.metrics.addCoord(int64(size), entries(req.Support))
	}
	own, err := t.local.startAdvance(reqs[t.self])
	if err != nil {
		return nil, err
	}
	return func() error { return t.finish(ctx, frames, own) }, nil
}

// finish completes the round own started: the driver's own shard's gather,
// then the remote shards' replies, merged into the frames' Next.
func (t *roundTransport) finish(ctx context.Context, frames []congest.FloodFrame, own *startedAdvance) error {
	walks := len(frames)
	resp, err := t.local.finishAdvance(ctx, own)
	if err != nil {
		return err
	}
	// A remote reply nests that shard's share wait, so it is allowed 3×
	// PeerTimeout.
	resps, err := t.local.collect(ctx, boxReplies, own.req.Round, func(m int) bool { return m != t.self }, 3*t.node.peerTimeout)
	if err != nil {
		return err
	}
	resps[t.self] = &resp

	// Merge: zero-fill then apply the sparse owned supports. Absent entries
	// are exact zeros on the shards too, so the merged Next is bit-identical
	// to a local kernel pass.
	for _, f := range frames {
		for i := range f.Next {
			f.Next[i] = 0
		}
	}
	for m, resp := range resps {
		if len(resp.Support) != walks {
			return &PeerError{Peer: t.peers[m], Err: fmt.Errorf("%w: shard %d answered %d walks, want %d", errCluster, m, len(resp.Support), walks)}
		}
		for w, sup := range resp.Support {
			next := frames[w].Next
			for _, e := range sup {
				next[e.V] = e.S
			}
		}
		if t.stats != nil {
			t.stats[m].freezeNS += resp.T.FreezeNS
			t.stats[m].pullNS += resp.T.PullNS
			t.stats[m].gatherNS += resp.T.GatherNS
			t.stats[m].rounds++
		}
	}
	t.node.metrics.addRounds(1)
	return nil
}

// entries counts the entries of a per-walk support.
func entries(walks [][]entry) int64 {
	var n int64
	for _, w := range walks {
		n += int64(len(w))
	}
	return n
}
