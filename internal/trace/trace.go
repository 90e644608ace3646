// Package trace is the serving stack's flight recorder: request-scoped
// traces with per-phase time attribution and a bounded span list, carried
// through Detector runs via context and across cluster RPCs via the
// X-Request-Id header, so a slow request can say whether its time went to
// walking, sweeping, flood rounds, peer pulls or the cache.
//
// The package is dependency-free and built for hot paths: a nil *Trace is
// a valid no-op receiver for every method, so instrumented code guards a
// single pointer comparison and pays neither clock reads nor allocations
// when tracing is off. Phase accumulators are atomics (engines add to
// them from worker goroutines); the span list takes a mutex and is
// bounded at maxSpans, counting anything beyond as dropped rather than
// growing without limit.
package trace

import (
	"context"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies where a request's time went. The taxonomy follows the
// algorithm: walk (random-walk stepping), sweep (mixing-set candidate
// ladder), flood (CONGEST communication rounds, including transport
// waits in cluster mode), peer_pull (shard-side waits for peers' share
// frames, nested inside flood time), cache (registry result-cache lookups
// and flight waits).
type Phase uint8

const (
	PhaseWalk Phase = iota
	PhaseSweep
	PhaseFlood
	PhasePeerPull
	PhaseCache
	// NumPhases sizes per-phase arrays; it is not itself a phase.
	NumPhases
)

var phaseNames = [NumPhases]string{"walk", "sweep", "flood", "peer_pull", "cache"}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Phases lists every phase in declaration order, for exporters that emit
// one metric series per phase.
func Phases() [NumPhases]Phase {
	var ps [NumPhases]Phase
	for i := range ps {
		ps[i] = Phase(i)
	}
	return ps
}

// maxSpans bounds one trace's span list. Cluster detections emit one
// aggregate span per shard rank, local detections a handful, so 128
// leaves generous headroom while keeping a hostile or looping caller
// from growing a trace without bound.
const maxSpans = 128

// Attr is one key=value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

type span struct {
	name  string
	rank  int
	start time.Time
	dur   time.Duration
	attrs []Attr
}

// Trace is one request's flight record: an ID (minted locally or
// accepted from the client), wall-clock bounds, per-phase accumulated
// nanoseconds, and a bounded list of spans. Create with New/NewAt, carry
// via NewContext, finish with Finish, retain in a Recorder.
type Trace struct {
	id    string
	name  string
	start time.Time
	durNS atomic.Int64
	phase [NumPhases]atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
}

// NewID mints a request ID: 16 hex digits from a non-cryptographic
// generator. Uniqueness across a trace ring of a few hundred entries is
// all that is required, and keeping the mint at a few tens of
// nanoseconds is what lets tracing stay on by default inside the ≤5%
// serving-overhead budget.
func NewID() string {
	// Setting the top bit pins the width at 16 digits.
	return strconv.FormatUint(rand.Uint64()|1<<63, 16)
}

// New starts a trace now. NewAt reuses a clock read the caller already
// paid for (serving wrappers time every request anyway).
func New(id, name string) *Trace { return NewAt(id, name, time.Now()) }

// NewAt starts a trace at an externally observed start time.
func NewAt(id, name string, start time.Time) *Trace {
	return &Trace{id: id, name: name, start: start}
}

// ID returns the trace's request ID ("" for nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start returns the trace's start time (zero for nil). Layers below the
// request wrapper use it as a free interval origin — one clock read at
// trace creation serves every "since the request began" measurement.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// AddPhase attributes d to phase p. Safe from concurrent goroutines and
// free on a nil receiver.
func (t *Trace) AddPhase(p Phase, d time.Duration) {
	if t == nil || p >= NumPhases {
		return
	}
	t.phase[p].Add(int64(d))
}

// PhaseNS reports the nanoseconds accumulated against p.
func (t *Trace) PhaseNS(p Phase) int64 {
	if t == nil || p >= NumPhases {
		return 0
	}
	return t.phase[p].Load()
}

// Finish records the request's total duration. Idempotent; the last
// value wins.
func (t *Trace) Finish(d time.Duration) {
	if t == nil {
		return
	}
	t.durNS.Store(int64(d))
}

// AddSpan appends a completed span (possibly synthesized after the fact,
// like the per-shard aggregates a cluster driver emits from advance
// responses). Beyond maxSpans the span is counted as dropped.
func (t *Trace) AddSpan(name string, rank int, start time.Time, d time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.spans = append(t.spans, span{name: name, rank: rank, start: start, dur: d, attrs: attrs})
	t.mu.Unlock()
}

type ctxKey struct{}

// traceCtx carries the trace as a dedicated context type rather than a
// context.WithValue wrapper: half the allocation, no comparability
// check, and a direct type-assert fast path in FromContext. Every
// traced request mints one, so this is hot-path weight that counts
// against the ≤5% tracing-on budget.
type traceCtx struct {
	context.Context
	t *Trace
}

func (c *traceCtx) Value(key any) any {
	if _, ok := key.(ctxKey); ok {
		return c.t
	}
	return c.Context.Value(key)
}

// NewContext returns ctx carrying t.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return &traceCtx{Context: ctx, t: t}
}

// FromContext returns the trace carried by ctx, or nil. The lookup is
// allocation-free, so hot paths may call it unconditionally.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	if c, ok := ctx.(*traceCtx); ok {
		return c.t
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Snapshot is the JSON shape served from GET /debug/traces.
type Snapshot struct {
	ID              string             `json:"id"`
	Name            string             `json:"name"`
	Start           time.Time          `json:"start"`
	DurationSeconds float64            `json:"duration_seconds"`
	PhaseSeconds    map[string]float64 `json:"phase_seconds"`
	Spans           []SpanSnapshot     `json:"spans,omitempty"`
	DroppedSpans    int                `json:"dropped_spans,omitempty"`
}

// SpanSnapshot is one span in a Snapshot; StartSeconds is the offset
// from the trace's start.
type SpanSnapshot struct {
	Name            string            `json:"name"`
	Rank            int               `json:"rank"`
	StartSeconds    float64           `json:"start_seconds"`
	DurationSeconds float64           `json:"duration_seconds"`
	Attrs           map[string]string `json:"attrs,omitempty"`
}

// Snapshot renders the trace for serving. Safe to call while the trace
// is still accumulating (concurrent AddPhase/AddSpan).
func (t *Trace) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	snap := Snapshot{
		ID:              t.id,
		Name:            t.name,
		Start:           t.start,
		DurationSeconds: time.Duration(t.durNS.Load()).Seconds(),
		PhaseSeconds:    make(map[string]float64, NumPhases),
	}
	for p := Phase(0); p < NumPhases; p++ {
		if ns := t.phase[p].Load(); ns > 0 {
			snap.PhaseSeconds[p.String()] = time.Duration(ns).Seconds()
		}
	}
	t.mu.Lock()
	snap.DroppedSpans = t.dropped
	for _, sp := range t.spans {
		ss := SpanSnapshot{
			Name:            sp.name,
			Rank:            sp.rank,
			StartSeconds:    sp.start.Sub(t.start).Seconds(),
			DurationSeconds: sp.dur.Seconds(),
		}
		if len(sp.attrs) > 0 {
			ss.Attrs = make(map[string]string, len(sp.attrs))
			for _, a := range sp.attrs {
				ss.Attrs[a.Key] = a.Value
			}
		}
		snap.Spans = append(snap.Spans, ss)
	}
	t.mu.Unlock()
	return snap
}
