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
// |S|-smallest-x_u selection. Every round is charged to a lane — one walk's
// protocol instance — and a one-walk run is a batch of one lane. An optional
// per-round link-load observer (LoadObserver) feeds the k-machine conversion
// (internal/kmachine).
package congest

import (
	"context"
	"fmt"
	"runtime"
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

// LoadObserver receives each communication round's aggregate link loads:
// the load on every directed link, which is what the k-machine conversion
// charges (kmachine.Simulator.LoadObserver computes its per-link prefix sums
// straight from the aggregates). It is called once per round, empty rounds
// included, in round order as each phase of lane rounds completes. The
// slice is reused between rounds; implementations must not retain it.
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
// not safe for concurrent use. Internally it runs two kinds of work in
// parallel, neither of which touches the accounting and each on
// min(GOMAXPROCS, units of work) goroutines: a flood round's per-node
// gather, tile by tile (parallelRanges), and the independent per-size
// selections of a mixing-set ladder (evalLadder), whose rounds and messages
// the caller then charges in ladder order.
type Network struct {
	g       *graph.Graph
	metrics Metrics
	loadObs LoadObserver

	// Lane accounting: every entry point opens a batch of lanes
	// (beginBatch), one per walk, and brackets each group of concurrent lane
	// rounds with beginPhase/endPhase. beginRound and the charging helpers
	// charge the current lane; rounds of different lanes within one phase
	// overlap into shared communication rounds that are folded into the
	// global metrics (and flushed to the load observer) at endPhase.
	lanes      []lane
	curLane    int
	phaseMax   int          // max lane phaseRounds this phase
	phaseLoads [][]LinkLoad // per relative round, only built while observing

	// ctx is the run context installed by the context-aware entry points
	// (DetectContext and friends) and done its Done channel, fetched once
	// per run; the round scheduler polls done so a cancelled caller stops
	// burning simulated rounds. ctxErr caches the context error once done
	// has closed. tr is the request trace carried by that context (nil =
	// untraced): the round loop attributes flood and sweep time to it.
	ctx    context.Context
	done   <-chan struct{}
	ctxErr error
	tr     *trace.Trace

	// transport, when non-nil, executes the numeric part of every flood
	// round (SetFloodTransport); transportErr is the run's first transport
	// failure, sticky until the next run, and frameBuf the reused frame
	// slice handed to the transport.
	transport    FloodTransport
	transportErr error
	frameBuf     []FloodFrame

	// Selection state (selectIndexed), built lazily and retained across
	// runs. When shared is non-nil the degree index and the inverse-degree
	// table come from it instead of being built per network. For the
	// current walk step, support lists the covered nodes that hold mass,
	// offMembers those that hold none, and off is the stream over
	// offMembers. sel holds one scratch per ladder worker and sizeRes the
	// ladder's results.
	shared     *rw.SharedIndex
	degIdx     *rw.DegreeIndex
	dinv       []float64
	off        rw.OffSupportStream
	support    []int32
	offMembers []int32
	sel        []*selScratch
	sizeRes    []sizeResult

	// Flood-kernel scratch (batchFlood), retained across rounds: the
	// vertex-interleaved outgoing shares of every live walk.
	shareAll []float64
}

// NewNetwork returns a CONGEST network over g.
func NewNetwork(g *graph.Graph) *Network {
	return NewNetworkWithIndex(g, nil)
}

// NewNetworkWithIndex is NewNetwork with a caller-owned shared index bundle:
// the network reads its degree index and inverse-degree table from ix
// instead of building private copies, so many networks over one graph (a
// detector pool, or repeated runs on one registry generation) share one set
// of immutable tables. ix nil selects private lazily-built tables; ix must
// otherwise index the same graph g.
func NewNetworkWithIndex(g *graph.Graph, ix *rw.SharedIndex) *Network {
	return &Network{g: g, shared: ix}
}

// SetLoadObserver installs a per-round link-load observer (pass nil to
// remove).
func (nw *Network) SetLoadObserver(obs LoadObserver) { nw.loadObs = obs }

// LoadObserver returns the currently installed load observer (nil if none),
// so scoped installers (kmachine.Simulator.Run) can restore it afterwards.
func (nw *Network) LoadObserver() LoadObserver { return nw.loadObs }

// setContext installs the run context for the duration of one context-aware
// entry point. Passing nil clears it. Either direction starts the run (or
// the network's idle state) clean of the previous run's sticky transport
// error.
func (nw *Network) setContext(ctx context.Context) {
	nw.tr = trace.FromContext(ctx)
	nw.ctx, nw.done = nil, nil
	if ctx != nil && ctx != context.Background() {
		// Background has nothing to poll: a nil done keeps the check free.
		nw.ctx, nw.done = ctx, ctx.Done()
	}
	nw.ctxErr = nil
	nw.transportErr = nil
}

// interrupted reports the run context's error, caching it once seen. The
// round scheduler and the per-size selection loops poll it so that
// cancellation lands within O(1) rounds rather than at the next walk step.
// A sticky transport failure (floodRemote) surfaces here too, so a broken
// cluster link unwinds a detection exactly like a cancelled context —
// always an error, never wrong numbers.
func (nw *Network) interrupted() error {
	if nw.transportErr != nil {
		return nw.transportErr
	}
	if nw.ctxErr == nil && nw.stopped() {
		nw.ctxErr = nw.ctx.Err()
	}
	return nw.ctxErr
}

// stopped reports whether the run context is done or a transport failed.
// It polls the cached Done channel without blocking — no lock, no write —
// so concurrent ladder workers may call it.
func (nw *Network) stopped() bool {
	if nw.transportErr != nil {
		return true
	}
	select {
	case <-nw.done:
		return true
	default:
		return false
	}
}

// Graph returns the underlying input graph.
func (nw *Network) Graph() *graph.Graph { return nw.g }

// Metrics returns the accumulated round/message counts.
func (nw *Network) Metrics() Metrics { return nw.metrics }

// beginRound opens a new communication round of the current lane. It also
// polls the run context: rounds already in flight complete (their cost is
// accounted), but the detection loops check interrupted() between rounds and
// unwind before scheduling more.
//
// The round advances the lane's own round count, and its position within
// the phase decides which shared communication round carries its messages
// (lane round r of every walk lands in the phase's r-th shared round). The
// fold into the global round count happens at endPhase.
func (nw *Network) beginRound() {
	nw.interrupted()
	nw.advance(1)
}

// advance moves the current lane forward by rounds rounds and returns the
// phase-relative index of the first of them, growing the phase's load
// buffers to cover them when an observer is installed.
func (nw *Network) advance(rounds int) int {
	ln := &nw.lanes[nw.curLane]
	first := ln.phaseRounds
	ln.rounds += rounds
	ln.phaseRounds += rounds
	nw.phaseMax = max(nw.phaseMax, ln.phaseRounds)
	if nw.loadObs != nil {
		for len(nw.phaseLoads) < ln.phaseRounds {
			nw.phaseLoads = append(nw.phaseLoads, nil)
		}
	}
	return first
}

// sendAllNeighbors accounts one message from v to each of its neighbours
// in the current lane round (used by tree building, where a frontier node
// messages every neighbour).
func (nw *Network) sendAllNeighbors(v int) {
	ns := nw.g.Neighbors(v)
	nw.accountMessages(len(ns))
	if nw.loadObs != nil {
		r := nw.lanes[nw.curLane].phaseRounds - 1
		for _, w := range ns {
			nw.phaseLoads[r] = append(nw.phaseLoads[r], LinkLoad{From: int32(v), To: w, Words: 1})
		}
	}
}

// accountMessages charges count messages to the global metrics and the
// current lane without naming their endpoints. Callers that observe report
// the links themselves: batchFlood appends one multi-word LinkLoad per link,
// and the collectives one LinkLoad per tree edge.
func (nw *Network) accountMessages(count int) {
	nw.metrics.Messages += int64(count)
	nw.lanes[nw.curLane].messages += int64(count)
}

// beginBatch opens k lanes (one per walk). The caller must pair it with
// endBatch and bracket every group of concurrent lane rounds with
// beginPhase/endPhase.
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

// endBatch closes the batch's lanes, keeping their storage for the next.
func (nw *Network) endBatch() { nw.lanes = nw.lanes[:0] }

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
// flushes its shared rounds to the load observer in order.
func (nw *Network) endPhase() {
	base := nw.metrics.Rounds
	nw.metrics.Rounds += nw.phaseMax
	if nw.loadObs == nil {
		return
	}
	for r := 0; r < nw.phaseMax; r++ {
		nw.loadObs(base+r+1, nw.phaseLoads[r])
		nw.phaseLoads[r] = nw.phaseLoads[r][:0]
	}
}

// rangeWorkers is the number of goroutines parallelRanges runs for n
// indices in tiles of tile: GOMAXPROCS, but no more than there are tiles,
// since an extra worker would only find the cursor exhausted. A graph of
// one tile floods on the calling goroutine alone.
func rangeWorkers(n, tile int) int {
	return min(runtime.GOMAXPROCS(0), (n+tile-1)/tile)
}

// parallelRanges runs fn over [0, n) split into half-open tiles of at most
// tile indices, handed to the workers through an atomic cursor. The tile
// bounds the slice of the output array one worker streams through at a time
// (pick tile so that slice stays L2-resident), and the range form keeps the
// per-index work in fn's own loop rather than behind a per-index call.
// fn must only write state owned by its index range; every tile is executed
// exactly once, so deterministic kernels stay deterministic regardless of
// which worker draws which tile.
func parallelRanges(n, tile int, fn func(lo, hi int)) {
	workers := rangeWorkers(n, tile)
	if workers < 2 {
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
	for w := 0; w < workers; w++ {
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

// degreeIndex returns the degree-sorted index behind the mixing-set
// selection (selectIndexed): the injected shared index's copy when one was
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
