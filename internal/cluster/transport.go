package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

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
// walk's support by owner, POSTs one advance per shard in parallel (the
// driver's own shard short-circuits in process), and merges the owned
// next-step supports back into the frames.
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
	// one span per rank when it cleans up. Written only in the merge loop
	// after wg.Wait, so no locking.
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

	resps := make([]advanceResponse, len(t.peers))
	errs := make([]error, len(t.peers))
	var wg sync.WaitGroup
	for m := range t.peers {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			if m == t.self {
				resps[m], errs[m] = t.local.advance(ctx, reqs[m])
				return
			}
			// An advance nests a freeze wait and a peer pull on the remote
			// side, each bounded by PeerTimeout; 3× covers both plus the
			// gather, so a hung shard cannot wedge the driver's round.
			payload, err := reqs[m].encode()
			if err == nil {
				actx, cancel := context.WithTimeout(ctx, 3*t.node.peerTimeout)
				var coord int64
				var body []byte
				_, body, err = t.node.post(actx, t.peers[m]+"/cluster/sessions/"+t.sid+"/advance", advanceContentType, payload, &coord)
				cancel()
				if err == nil {
					resps[m], err = decodeAdvanceReply(body)
				}
				t.node.metrics.addCoord(coord, entries(reqs[m].Support)+entries(resps[m].Support))
			}
			if err != nil {
				var pe *PeerError
				if !errors.As(err, &pe) {
					err = &PeerError{Peer: t.peers[m], Err: err}
				}
				errs[m] = err
			}
		}(m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Merge: zero-fill then apply the sparse owned supports. Absent entries
	// are exact zeros on the shards too, so the merged Next is bit-identical
	// to a local kernel pass.
	for _, f := range frames {
		for i := range f.Next {
			f.Next[i] = 0
		}
	}
	for m, resp := range resps {
		if resp.Round != t.round || len(resp.Support) != walks {
			return fmt.Errorf("%w: shard %d answered round %d/%d walks, want %d/%d", errCluster, m, resp.Round, len(resp.Support), t.round, walks)
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
