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
// numeric work is routed to the vertex owners. Per round it splits each
// walk's support by owner, writes one advance frame to every remote shard,
// runs its own shard's advance in process, waits for the remote shards'
// reply frames, and merges the owned next-step supports back into the
// frames.
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
	// one span per rank when it cleans up. Written only by Flood, so no
	// locking.
	stats []shardStat
}

// shardStat is one shard's accumulated advance timing over a detection.
type shardStat struct {
	freezeNS int64
	pullNS   int64
	gatherNS int64
	rounds   int
}

func (t *roundTransport) Flood(ctx context.Context, frames []congest.FloodFrame) error {
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
	// runs, so all shards freeze and exchange shares at once. The reply
	// frames are counted as they arrive.
	for m, req := range reqs {
		if m == t.self {
			continue
		}
		payload, err := req.encode()
		if err != nil {
			return err
		}
		size, err := t.node.send(t.peers[m], t.sid, payload)
		if err != nil {
			return err
		}
		t.node.metrics.addCoord(int64(size), entries(req.Support))
	}
	own, err := t.local.advance(ctx, reqs[t.self])
	if err != nil {
		return err
	}
	// A remote reply nests that shard's share wait, so it is allowed 3×
	// PeerTimeout.
	resps, err := t.local.collect(ctx, boxReplies, t.round, func(m int) bool { return m != t.self }, 3*t.node.peerTimeout)
	if err != nil {
		return err
	}
	resps[t.self] = &own

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
