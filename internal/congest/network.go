// Package congest simulates the CONGEST model of distributed computing
// (Peleg 2000) on a given input graph and implements CDRW on it: nodes are
// processors, edges are communication links, computation proceeds in
// synchronous rounds, and each node may send one O(log n)-bit message per
// neighbour per round.
//
// The simulator accounts rounds and messages exactly as the paper's
// complexity analysis does (§III): one round per probability-flooding step,
// depth-of-BFS-tree rounds per broadcast/convergecast, and a
// broadcast+convergecast pair per binary-search iteration of the
// |S|-smallest-x_u selection. An optional per-message observer feeds the
// k-machine conversion (internal/kmachine).
package congest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cdrw/internal/graph"
	"cdrw/internal/rw"
	"cdrw/internal/trace"
)

// Metrics accumulates the two CONGEST complexity measures.
type Metrics struct {
	// Rounds is the number of synchronous communication rounds.
	Rounds int
	// Messages is the total number of O(log n)-bit messages sent.
	Messages int64
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.Rounds += other.Rounds
	m.Messages += other.Messages
}

// Traffic identifies one message for the per-message observer.
type Traffic struct {
	From, To int32
}

// RoundObserver receives every message of one communication round. The
// slice is reused between rounds; implementations must not retain it.
type RoundObserver func(round int, msgs []Traffic)

// LinkLoad aggregates the words one directed link carried in one round:
// Words messages of one O(log n)-bit word each from From to To. In a batched
// round (DetectBatch) a link carries one word per walk whose payload crosses
// it, so Words is the number of such walks; in a one-walk round every load
// has Words == 1. Entries for the same link may repeat within a round;
// consumers accumulate.
type LinkLoad struct {
	From, To int32
	Words    int32
}

// LoadObserver receives each communication round's aggregate link loads. It
// carries the same information as RoundObserver but without materialising
// one Traffic entry per word, which is what makes the k-machine conversion
// of batched executions cheap (kmachine.Simulator.LoadObserver computes its
// per-link prefix sums straight from the aggregates). The slice is reused
// between rounds; implementations must not retain it.
type LoadObserver func(round int, loads []LinkLoad)

// lane is the per-walk accounting of a batched execution: the rounds and
// messages the walk's own protocol consumed (exactly what the walk run
// alone would be charged), plus its round offset within the current
// phase.
type lane struct {
	rounds      int
	messages    int64
	phaseRounds int
}

// Network wraps the input graph with round/message accounting. A Network is
// not safe for concurrent use; the parallel executor only parallelises
// per-node local computation inside a round, never the round structure.
type Network struct {
	g        *graph.Graph
	metrics  Metrics
	observer RoundObserver
	loadObs  LoadObserver
	workers  int
	buf      []Traffic
	loadBuf  []LinkLoad

	// Batched-execution state (DetectBatch): while lanes is non-nil the
	// network is in batch mode — beginRound and the send helpers charge the
	// current lane, and rounds of different lanes within one phase overlap
	// into shared communication rounds that are folded into the global
	// metrics (and flushed to the observers) at endPhase.
	lanes      []lane
	curLane    int
	phaseMax   int          // max lane phaseRounds this phase
	phaseLoads [][]LinkLoad // per relative round, only built while observing
	expandBuf  []Traffic    // legacy-observer expansion scratch

	// ctx is the run context installed by the context-aware entry points
	// (DetectContext and friends); the round scheduler polls it so a
	// cancelled caller stops burning simulated rounds. ctxErr caches the
	// first observed context error for the duration of the run. tr is the
	// request trace carried by that context (nil = untraced): the round
	// loop attributes flood and sweep time to it.
	ctx    context.Context
	ctxErr error
	tr     *trace.Trace

	// transport, when non-nil, executes the numeric part of every flood
	// round (SetFloodTransport); transportErr is the run's first transport
	// failure, sticky until the next run, and frameBuf the reused frame
	// slice handed to the transport.
	transport    FloodTransport
	transportErr error
	frameBuf     []FloodFrame

	// Selection fast-path state (selectKSmallestIndexed), built lazily and
	// retained across runs. When shared is non-nil the degree index and the
	// inverse-degree table come from it instead of being built per network.
	shared  *rw.SharedIndex
	degIdx  *rw.DegreeIndex
	dinv    []float64
	off     rw.OffSupportStream
	support []int32
	xsup    []float64
	selKeys []key

	// Flood-kernel scratch (floodStep/batchFlood), retained across rounds:
	// shareBuf holds the per-source outgoing shares of a solo flood, shareAll
	// the vertex-interleaved shares of a batched flood.
	shareBuf []float64
	shareAll []float64
}

// NewNetwork returns a CONGEST network over g. workers controls how many
// goroutines run per-node computations inside each round; values below 2
// select the sequential executor. Results are identical either way — nodes
// only read the previous round's state and write their own slot.
func NewNetwork(g *graph.Graph, workers int) *Network {
	return NewNetworkWithIndex(g, workers, nil)
}

// NewNetworkWithIndex is NewNetwork with a caller-owned shared index bundle:
// the network reads its degree index and inverse-degree table from ix
// instead of building private copies, so many networks over one graph (a
// detector pool, or repeated runs on one registry generation) share one set
// of immutable tables. ix nil selects private lazily-built tables; ix must
// otherwise index the same graph g.
func NewNetworkWithIndex(g *graph.Graph, workers int, ix *rw.SharedIndex) *Network {
	if workers < 1 {
		workers = 1
	}
	return &Network{g: g, workers: workers, shared: ix}
}

// SetObserver installs a per-round message observer (pass nil to remove).
// Observing materialises every message and slows simulation down; prefer
// SetLoadObserver, which receives the same information as per-link
// aggregates.
func (nw *Network) SetObserver(obs RoundObserver) { nw.observer = obs }

// Observer returns the currently installed per-round observer (nil if none),
// so scoped installers (kmachine.Simulator.Run) can restore it afterwards.
func (nw *Network) Observer() RoundObserver { return nw.observer }

// SetLoadObserver installs a per-round link-load observer (pass nil to
// remove). It may coexist with a Traffic observer; both see every round.
func (nw *Network) SetLoadObserver(obs LoadObserver) { nw.loadObs = obs }

// LoadObserver returns the currently installed load observer (nil if none).
func (nw *Network) LoadObserver() LoadObserver { return nw.loadObs }

// observing reports whether any observer needs per-round load data.
func (nw *Network) observing() bool { return nw.observer != nil || nw.loadObs != nil }

// setContext installs the run context for the duration of one context-aware
// entry point. Passing nil clears it. Either direction starts the run (or
// the network's idle state) clean of the previous run's sticky transport
// error.
func (nw *Network) setContext(ctx context.Context) {
	nw.tr = trace.FromContext(ctx)
	if ctx == context.Background() {
		ctx = nil // nothing to poll; keep the scheduler check free
	}
	nw.ctx = ctx
	nw.ctxErr = nil
	nw.transportErr = nil
}

// interrupted reports the run context's error, caching the first one seen.
// The round scheduler and the per-size selection loops poll it so that
// cancellation lands within O(1) rounds rather than at the next walk step.
// A sticky transport failure (floodRemote) surfaces here too, so a broken
// cluster link unwinds a detection exactly like a cancelled context —
// always an error, never wrong numbers.
func (nw *Network) interrupted() error {
	if nw.transportErr != nil {
		return nw.transportErr
	}
	if nw.ctxErr != nil {
		return nw.ctxErr
	}
	if nw.ctx != nil {
		nw.ctxErr = nw.ctx.Err()
	}
	return nw.ctxErr
}

// Graph returns the underlying input graph.
func (nw *Network) Graph() *graph.Graph { return nw.g }

// Metrics returns the accumulated round/message counts.
func (nw *Network) Metrics() Metrics { return nw.metrics }

// ResetMetrics zeroes the accumulated counts.
func (nw *Network) ResetMetrics() { nw.metrics = Metrics{} }

// beginRound opens a new communication round and returns its index. It also
// polls the run context: rounds already in flight complete (their cost is
// accounted), but the detection loops check interrupted() between rounds and
// unwind before scheduling more.
//
// In batch mode the round belongs to the current lane: it advances that
// walk's own round count, and its position within the phase decides which
// shared communication round carries its messages (lane round r of every
// walk lands in the phase's r-th shared round). The fold into the global
// round count happens at endPhase.
func (nw *Network) beginRound() int {
	nw.interrupted()
	if nw.lanes != nil {
		ln := &nw.lanes[nw.curLane]
		ln.rounds++
		ln.phaseRounds++
		if ln.phaseRounds > nw.phaseMax {
			nw.phaseMax = ln.phaseRounds
		}
		if nw.observing() {
			for len(nw.phaseLoads) < ln.phaseRounds {
				nw.phaseLoads = append(nw.phaseLoads, nil)
			}
		}
		return ln.phaseRounds
	}
	nw.metrics.Rounds++
	if nw.observer != nil {
		nw.buf = nw.buf[:0]
	}
	if nw.loadObs != nil {
		nw.loadBuf = nw.loadBuf[:0]
	}
	return nw.metrics.Rounds
}

// send accounts one message from -> to within the current round (of the
// current lane, in batch mode).
func (nw *Network) send(from, to int) {
	nw.metrics.Messages++
	if nw.lanes != nil {
		ln := &nw.lanes[nw.curLane]
		ln.messages++
		if nw.observing() {
			r := ln.phaseRounds - 1
			nw.phaseLoads[r] = append(nw.phaseLoads[r], LinkLoad{From: int32(from), To: int32(to), Words: 1})
		}
		return
	}
	if nw.observer != nil {
		nw.buf = append(nw.buf, Traffic{From: int32(from), To: int32(to)})
	}
	if nw.loadObs != nil {
		nw.loadBuf = append(nw.loadBuf, LinkLoad{From: int32(from), To: int32(to), Words: 1})
	}
}

// sendAllNeighbors accounts one message from v to each of its neighbours
// (used by flooding and tree building, where a node messages every
// neighbour).
func (nw *Network) sendAllNeighbors(v int) {
	ns := nw.g.Neighbors(v)
	nw.metrics.Messages += int64(len(ns))
	if nw.lanes != nil {
		ln := &nw.lanes[nw.curLane]
		ln.messages += int64(len(ns))
		if nw.observing() {
			r := ln.phaseRounds - 1
			for _, w := range ns {
				nw.phaseLoads[r] = append(nw.phaseLoads[r], LinkLoad{From: int32(v), To: w, Words: 1})
			}
		}
		return
	}
	if nw.observer != nil {
		for _, w := range ns {
			nw.buf = append(nw.buf, Traffic{From: int32(v), To: w})
		}
	}
	if nw.loadObs != nil {
		for _, w := range ns {
			nw.loadBuf = append(nw.loadBuf, LinkLoad{From: int32(v), To: w, Words: 1})
		}
	}
}

// accountMessages charges count messages to the global metrics (and the
// current lane, in batch mode) without naming their endpoints. Only valid
// while no observer is installed; observer paths enumerate real sends.
func (nw *Network) accountMessages(count int) {
	nw.metrics.Messages += int64(count)
	if nw.lanes != nil {
		nw.lanes[nw.curLane].messages += int64(count)
	}
}

// endRound closes the current round, flushing messages to the observers. In
// batch mode rounds are flushed at endPhase instead.
func (nw *Network) endRound(round int) {
	if nw.lanes != nil {
		return
	}
	if nw.observer != nil {
		nw.observer(round, nw.buf)
	}
	if nw.loadObs != nil {
		nw.loadObs(round, nw.loadBuf)
	}
}

// beginBatch enters batch mode with k lanes (one per walk). The caller must
// pair it with endBatch and bracket every group of concurrent lane rounds
// with beginPhase/endPhase.
func (nw *Network) beginBatch(k int) {
	if cap(nw.lanes) < k {
		nw.lanes = make([]lane, k)
	}
	nw.lanes = nw.lanes[:k]
	for i := range nw.lanes {
		nw.lanes[i] = lane{}
	}
	nw.curLane = 0
	nw.phaseMax = 0
}

// endBatch leaves batch mode.
func (nw *Network) endBatch() { nw.lanes = nil }

// laneMetrics returns lane i's accumulated own-protocol cost.
func (nw *Network) laneMetrics(i int) Metrics {
	return Metrics{Rounds: nw.lanes[i].rounds, Messages: nw.lanes[i].messages}
}

// enterLane directs subsequent rounds and messages to lane i.
func (nw *Network) enterLane(i int) { nw.curLane = i }

// beginPhase opens a group of concurrent lane rounds: within the phase, the
// r-th round of every lane shares the r-th communication round, so the phase
// costs max (not sum) over lanes in global rounds — the Conversion-friendly
// batched execution of independent protocol instances.
func (nw *Network) beginPhase() {
	for i := range nw.lanes {
		nw.lanes[i].phaseRounds = 0
	}
	nw.phaseMax = 0
}

// endPhase folds the phase into the global metrics (max over lanes) and
// flushes its shared rounds to the observers in order.
func (nw *Network) endPhase() {
	base := nw.metrics.Rounds
	nw.metrics.Rounds += nw.phaseMax
	if !nw.observing() {
		return
	}
	for r := 0; r < nw.phaseMax; r++ {
		loads := nw.phaseLoads[r]
		if nw.loadObs != nil {
			nw.loadObs(base+r+1, loads)
		}
		if nw.observer != nil {
			// Legacy per-message view: expand each load into Words entries.
			buf := nw.expandBuf[:0]
			for _, ld := range loads {
				for w := int32(0); w < ld.Words; w++ {
					buf = append(buf, Traffic{From: ld.From, To: ld.To})
				}
			}
			nw.expandBuf = buf
			nw.observer(base+r+1, buf)
		}
		nw.phaseLoads[r] = loads[:0]
	}
}

// parallelFor runs fn(i) for i in [0, n) using the network's worker count.
// fn must only write to per-index state.
func (nw *Network) parallelFor(n int, fn func(i int)) {
	if nw.workers < 2 || n < 64 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + nw.workers - 1) / nw.workers
	for w := 0; w < nw.workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// parallelRanges runs fn over [0, n) split into half-open tiles of at most
// tile indices, handed to the workers through an atomic cursor. It is the
// blocked counterpart of parallelFor for kernels whose inner loop is written
// over a range: the tile bounds the slice of the output array one worker
// streams through at a time (pick tile so that slice stays L2-resident), and
// the range form amortises the per-index closure call of parallelFor away.
// fn must only write state owned by its index range; every tile is executed
// exactly once, so deterministic kernels stay deterministic regardless of
// which worker draws which tile.
func (nw *Network) parallelRanges(n, tile int, fn func(lo, hi int)) {
	if nw.workers < 2 || n <= tile {
		for lo := 0; lo < n; lo += tile {
			hi := lo + tile
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(1)-1) * tile
				if lo >= n {
					return
				}
				hi := lo + tile
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// degreeIndex returns the degree-sorted index behind the selection fast path
// (selectKSmallestIndexed): the injected shared index's copy when one was
// provided, a private lazily-built one otherwise. It models node-local
// knowledge — every node knows its own degree, and the root learns the
// degree distribution once during setup — so it costs no simulated
// communication per query.
func (nw *Network) degreeIndex() *rw.DegreeIndex {
	if nw.degIdx == nil {
		if nw.shared != nil {
			nw.degIdx = nw.shared.Degree()
		} else {
			nw.degIdx = rw.NewDegreeIndex(nw.g)
		}
	}
	return nw.degIdx
}

// degInvTable returns the read-only inverse-degree table the flood kernels
// multiply by (1/d(v), 0 for isolated vertices) — shared when an index
// bundle was injected, otherwise built once per network. Like degreeIndex it
// is node-local knowledge and costs no simulated communication.
func (nw *Network) degInvTable() []float64 {
	if nw.dinv == nil {
		if nw.shared != nil {
			nw.dinv = nw.shared.DegInv()
		} else {
			n := nw.g.NumVertices()
			inv := make([]float64, n)
			for v := 0; v < n; v++ {
				if d := nw.g.Degree(v); d > 0 {
					inv[v] = 1 / float64(d)
				}
			}
			nw.dinv = inv
		}
	}
	return nw.dinv
}

// floodShare returns the solo flood kernel's per-source share scratch, sized
// for n vertices and retained across rounds.
func (nw *Network) floodShare(n int) []float64 {
	if cap(nw.shareBuf) < n {
		nw.shareBuf = make([]float64, n)
	}
	return nw.shareBuf[:n]
}

// floodShareAll returns the batched flood kernel's interleaved share
// scratch, sized for n·k values and retained across rounds.
func (nw *Network) floodShareAll(nk int) []float64 {
	if cap(nw.shareAll) < nk {
		nw.shareAll = make([]float64, nk)
	}
	return nw.shareAll[:nk]
}

// checkVertex validates a vertex index against the network size.
func (nw *Network) checkVertex(v int) error {
	if v < 0 || v >= nw.g.NumVertices() {
		return fmt.Errorf("congest: vertex %d out of range [0,%d): %w",
			v, nw.g.NumVertices(), graph.ErrVertexOutOfRange)
	}
	return nil
}
