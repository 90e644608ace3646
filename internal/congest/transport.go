package congest

import (
	"context"
	"fmt"

	"cdrw/internal/rw"
)

// FloodFrame is one walk's view of a flood round handed to a FloodTransport:
// P is the current distribution (read-only for the transport) and Next is
// where the transport must write the evolved distribution — for every vertex,
// next(u) = Σ_{w ∈ N(u)} p(w)/d(w), with isolated vertices keeping their
// mass. A batched round passes one frame per live walk, in lane order.
type FloodFrame struct {
	P    rw.Dist
	Next rw.Dist
}

// FloodTransport executes the numeric part of a flood round outside the
// in-memory kernel — over real machine links, in a cluster. It is the
// pluggable round transport behind the network: the simulator keeps ALL of
// its own accounting (rounds, per-lane messages, observer link loads — the
// Conversion-Theorem "predicted" side) regardless of the transport, and
// delegates only the distribution evolution. A transport must therefore be
// numerically exact: the contract is the bit-identical evolution the
// in-memory kernel computes — shares frozen as p(w)·(1/d(w)) at each
// holder, accumulated per receiver in CSR neighbour order — so detection on
// a transport-backed network returns the same communities, stats and
// simulated metrics as the in-memory run (the conformance suites enforce
// this end to end).
//
// A round has two halves. Start reads every frame's P and sets the round
// going; the finish it returns writes every frame's Next, or returns the
// round's error. Between the two the network computes on the frames' P,
// which stays unchanged until finish returns, and reads no Next: the
// detection loop starts a round its walks are certain to take before the
// previous step's mixing-set search and finishes it after, so the round's
// communication overlaps that search. At most one round is in flight — the
// network finishes a started round before it starts the next — and every
// started round is finished, also when the run gives up. A Start that fails
// returns no finish: the round never started.
//
// ctx is the run context of the enclosing detection; a transport should
// honour it for its own I/O, in both halves. An error from either half
// poisons the network run (see Network.SetFloodTransport): the detection
// unwinds with the error within one ladder poll, never with wrong numbers.
type FloodTransport interface {
	Start(ctx context.Context, frames []FloodFrame) (finish func() error, err error)
}

// SetFloodTransport installs (or, with nil, removes) the network's flood
// transport and clears any sticky transport error. While a transport is
// installed, the flood rounds are accounted exactly as without one —
// simulated cost is a pure function of the execution, not of where the
// floats move — but the numeric evolution runs in the transport instead of
// the in-memory kernel.
//
// A transport error is sticky for the remainder of the run: interrupted()
// reports it like a context error, so the detection loops (ladder sweeps,
// round scheduler, pool loop) unwind within O(1) rounds. The next
// context-aware entry point (or SetFloodTransport call) clears it.
func (nw *Network) SetFloodTransport(t FloodTransport) {
	nw.transport = t
	nw.transportErr = nil
}

// startFlood starts the numeric part of a flood round for the live walks:
// their frames go to the installed transport, or to the in-memory kernel,
// whose start only keeps them, so its arithmetic runs in finishFlood, next
// to the round's accounting. A failed start is sticky before anything else
// reads the network — in particular before a ladder's workers start — and
// after a failure it is a no-op: the frames' Next contents are garbage
// either way, and the caller's next interrupted() poll surfaces the first
// error rather than a cascade.
func (nw *Network) startFlood(walks []*batchWalk) {
	frames := nw.frameBuf[:0]
	for _, w := range walks {
		if !w.trk.Done() {
			frames = append(frames, FloodFrame{P: w.p, Next: w.next})
		}
	}
	nw.frameBuf = frames
	if nw.transportErr != nil || len(frames) == 0 {
		return
	}
	if nw.transport == nil {
		nw.finish = func() error {
			nw.floodKernel(frames)
			return nil
		}
		return
	}
	ctx := nw.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	finish, err := nw.transport.Start(ctx, frames)
	if err != nil {
		nw.transportErr = fmt.Errorf("congest: flood transport: %w", err)
		return
	}
	nw.finish = finish
}

// finishFlood finishes the started round, if one is in flight, making its
// failure sticky like a failed start. Every return path of a loop that
// starts rounds runs it, so no round is left in flight.
func (nw *Network) finishFlood() {
	finish := nw.finish
	if finish == nil {
		return
	}
	nw.finish = nil
	if err := finish(); err != nil && nw.transportErr == nil {
		nw.transportErr = fmt.Errorf("congest: flood transport: %w", err)
	}
}
