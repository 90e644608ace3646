package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cdrw/internal/core"
	"cdrw/internal/graph"
	"cdrw/internal/metrics"
	"cdrw/internal/rw"
	"cdrw/internal/trace"
)

// ErrUnknownGraph reports a request against a name the registry does not
// hold; the HTTP layer maps it to 404.
var ErrUnknownGraph = errors.New("serve: unknown graph")

// maxPoolsPerGraph bounds how many distinct option fingerprints keep a live
// pool per graph; past it the registry evicts an arbitrary idle fingerprint
// (in-flight requests keep their pool alive through their own reference).
const maxPoolsPerGraph = 16

// defaultCacheCap bounds the registry's result cache (FIFO eviction).
const defaultCacheCap = 256

// Registry maps named graphs to detector pools and fronts them with a
// result cache and singleflight collapsing:
//
//   - one entry per name, created by Register and atomically swapped by a
//     repeated Register of the same name (replacement invalidates every
//     cached result and pool of the old graph);
//   - per entry, one DetectorPool per resolved option fingerprint
//     (core.Settings.Fingerprint), created lazily — requests with the same
//     options share warmed handles, requests with different options do not
//     contend;
//   - full-run results are cached per (graph generation, fingerprint) —
//     every run is deterministic in its resolved settings, so a cached
//     Result is bit-identical to recomputing it — and identical in-flight
//     requests collapse onto one run instead of each burning a handle.
//
// Cached results are shared between callers and must be treated as
// read-only; the daemon only encodes them, each full-run line once.
//
// All methods are safe for concurrent use.
type Registry struct {
	poolSize int
	m        *metrics.ServeMetrics

	// deltaMu serialises ApplyDelta swaps so two deltas never build next
	// generations off the same serving copy. It is never held together with
	// mu for longer than a map operation; readers only ever take mu.
	deltaMu sync.Mutex

	mu      sync.Mutex
	entries map[string]*entry
	cache   map[string]*detectLine
	comm    map[string]commCached
	order   []string // cache+comm insertion order, for FIFO eviction
	flights map[string]*flight
}

// entry is one named graph with its base options and per-fingerprint pools.
// ix is the generation's shared immutable index bundle: built once, when the
// first pool or cluster request (Resolve) needs it, and handed to every pool
// and cluster driver of this entry, so all handles of all fingerprints over
// one graph generation share one set of tables.
// Replacement installs a fresh entry (nil ix), so a new generation never
// reads the old generation's tables; old pools keep the old bundle alive
// only as long as their in-flight requests do.
type entry struct {
	g     *graph.Graph
	opts  []core.Option
	gen   int // bumped on replacement; stale cache keys become unreachable
	ix    *rw.SharedIndex
	pools map[string]poolSlot
}

// index returns the generation's shared index bundle, built on first use;
// the caller holds the registry's lock.
func (e *entry) index() *rw.SharedIndex {
	if e.ix == nil {
		e.ix = rw.NewSharedIndex(e.g)
	}
	return e.ix
}

// poolSlot is one per-fingerprint pool plus the merged options that created
// it — retained so ApplyDelta can recreate the same pool over the next graph
// generation without re-deriving options from request traffic.
type poolSlot struct {
	pool *DetectorPool
	opts []core.Option
}

// commCached is one cached single-seed answer. fp repeats the resolved
// fingerprint from the cache key so delta migration can re-key and re-verify
// lines without parsing key strings; stats carries the seed and the frozen
// walk length the re-verification replays.
type commCached struct {
	community []int
	stats     core.CommunityStats
	fp        string
}

// detectLine is one cached full run. Its detections are encoded once, the
// first time the HTTP layer serves the line, and the bytes live and die with
// the line: eviction, ApplyDelta and a replacing Register drop both. The
// line is immutable under its (generation, fingerprint) key, so every later
// /detect answer writes the same bytes.
type detectLine struct {
	res  *core.Result
	once sync.Once
	body []byte // the JSON detections array, set by once
}

// detectionsJSON returns the line's detections as a JSON array, encoding
// them on the first call.
func (l *detectLine) detectionsJSON() []byte {
	l.once.Do(func() {
		dets := make([]detectionJSON, len(l.res.Detections))
		for i, det := range l.res.Detections {
			dets[i] = toDetectionJSON(det)
		}
		// Ints and bools only: the encoding cannot fail.
		l.body, _ = json.Marshal(dets)
	})
	return l.body
}

// flight is one in-flight Detect run identical requests collapse onto; line
// is set when the run succeeds.
type flight struct {
	done chan struct{}
	line *detectLine
	err  error
}

// NewRegistry returns an empty registry whose pools hold poolSize handles
// each (values < 1 select GOMAXPROCS). m receives the cache/collapse/wait
// counters and may be nil.
func NewRegistry(poolSize int, m *metrics.ServeMetrics) *Registry {
	if poolSize < 1 {
		poolSize = runtime.GOMAXPROCS(0)
	}
	return &Registry{
		poolSize: poolSize,
		m:        m,
		entries:  make(map[string]*entry),
		cache:    make(map[string]*detectLine),
		comm:     make(map[string]commCached),
		flights:  make(map[string]*flight),
	}
}

// Register installs (or replaces) the named graph with the given base
// options, which every request on that graph inherits (request options are
// applied on top). Replacing a graph invalidates its cached results and
// drops its pools; requests already running on the old graph finish
// undisturbed on it.
func (r *Registry) Register(name string, g *graph.Graph, opts ...core.Option) error {
	if name == "" {
		return fmt.Errorf("serve: empty graph name")
	}
	// Validate the base options up front so a bad Register fails loudly
	// instead of failing every later request.
	if _, err := core.Resolve(g.NumVertices(), opts...); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	gen := 0
	if old, ok := r.entries[name]; ok {
		gen = old.gen + 1
		r.invalidateLocked(name)
	}
	r.entries[name] = &entry{g: g, opts: opts, gen: gen, pools: make(map[string]poolSlot)}
	return nil
}

// Remove drops the named graph, its pools and its cached results. It
// reports whether the name was present.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; !ok {
		return false
	}
	r.invalidateLocked(name)
	delete(r.entries, name)
	return true
}

// invalidateLocked sweeps every cached result of name. Generation bumps
// already make stale keys unreachable; the sweep keeps the cache from
// carrying dead weight until FIFO eviction finds it.
func (r *Registry) invalidateLocked(name string) {
	prefix := cachePrefix(name)
	kept := r.order[:0]
	for _, k := range r.order {
		if strings.HasPrefix(k, prefix) {
			delete(r.cache, k)
			delete(r.comm, k)
			continue
		}
		kept = append(kept, k)
	}
	r.order = kept
}

// Names returns the registered graph names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Graph returns the named graph.
func (r *Registry) Graph(name string) (*graph.Graph, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, false
	}
	return e.g, true
}

// Pool returns the pool serving the named graph under the given request
// options (applied over the graph's base options), creating it on first
// use. The second return carries the entry's generation and resolved
// settings for cache keying.
func (r *Registry) Pool(name string, opts ...core.Option) (*DetectorPool, int, core.Settings, error) {
	p, gen, settings, _, err := r.pool(name, opts...)
	return p, gen, settings, err
}

// pool is Pool also returning the settings' fingerprint, so a request
// computes it once and keys its pool, its cache line and its answer with it.
func (r *Registry) pool(name string, opts ...core.Option) (*DetectorPool, int, core.Settings, string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, 0, core.Settings{}, "", fmt.Errorf("%w %q", ErrUnknownGraph, name)
	}
	merged := append(append([]core.Option(nil), e.opts...), opts...)
	settings, err := core.Resolve(e.g.NumVertices(), merged...)
	if err != nil {
		return nil, 0, core.Settings{}, "", err
	}
	fp := settings.Fingerprint()
	if slot, ok := e.pools[fp]; ok {
		return slot.pool, e.gen, settings, fp, nil
	}
	p, err := NewDetectorPoolWithIndex(e.g, r.poolSize, e.index(), merged...)
	if err != nil {
		return nil, 0, core.Settings{}, "", err
	}
	p.SetMetrics(r.m)
	if len(e.pools) >= maxPoolsPerGraph {
		for k := range e.pools {
			delete(e.pools, k)
			break
		}
	}
	e.pools[fp] = poolSlot{pool: p, opts: merged}
	return p, e.gen, settings, fp, nil
}

// Resolve looks up the named graph and resolves the request options over its
// base options without creating (or warming) a pool — the cluster layer uses
// it to validate and fingerprint a request before distributing the run, where
// a local pool would never execute it. The returned options slice is the
// merged base+request set plus core.WithSharedIndex of the generation's
// index bundle, the one its pools share, so a detector made from them does
// not build its own tables; the slice is owned by the caller.
func (r *Registry) Resolve(name string, opts ...core.Option) (*graph.Graph, []core.Option, core.Settings, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, nil, core.Settings{}, fmt.Errorf("%w %q", ErrUnknownGraph, name)
	}
	merged := append(append([]core.Option(nil), e.opts...), opts...)
	settings, err := core.Resolve(e.g.NumVertices(), merged...)
	if err != nil {
		return nil, nil, core.Settings{}, err
	}
	return e.g, append(merged, core.WithSharedIndex(e.index())), settings, nil
}

func cachePrefix(name string) string {
	// Length-prefix the name so no graph name can forge another's keys.
	return fmt.Sprintf("%d:%s#", len(name), name)
}

// cacheKey identifies one cachable request: graph name + generation +
// request kind + resolved option fingerprint.
func cacheKey(name string, gen int, kind string, fp string) string {
	return fmt.Sprintf("%s%d|%s|%s", cachePrefix(name), gen, kind, fp)
}

// rememberLocked inserts key into the FIFO order, evicting the oldest
// entries past the cache cap.
func (r *Registry) rememberLocked(key string) {
	r.order = append(r.order, key)
	for len(r.order) > defaultCacheCap {
		old := r.order[0]
		r.order = r.order[1:]
		delete(r.cache, old)
		delete(r.comm, old)
	}
}

// Detect serves a full pool-loop detection of the named graph under the
// given options, returning the resolved settings it ran with (for response
// fingerprints) and whether the result came from the cache. Identical
// requests — same graph generation, same resolved fingerprint — share one
// computation: the first caller runs it on a pooled handle, concurrent
// duplicates wait for that run (honouring their own ctx), and later callers
// hit the cache. A collapsed caller whose leader was cancelled — the
// leader's client hung up, not this one — retries as a fresh leader instead
// of inheriting the foreign cancellation. The returned Result is shared;
// treat it as read-only.
func (r *Registry) Detect(ctx context.Context, name string, opts ...core.Option) (*core.Result, core.Settings, bool, error) {
	line, settings, _, cached, err := r.detect(ctx, name, opts...)
	if err != nil {
		return nil, settings, false, err
	}
	return line.res, settings, cached, nil
}

// detect is Detect returning the cache line, which the HTTP layer answers
// from, and the settings' fingerprint. On error the line is nil.
func (r *Registry) detect(ctx context.Context, name string, opts ...core.Option) (*detectLine, core.Settings, string, bool, error) {
	// Cache-phase attribution: everything from the request's start until
	// this request either answers from the cache layer or commits to a
	// live run — routing, body decode, pool resolution and the
	// lookup/collapse dance all charge to "cache", so a pure hit's trace
	// explains its whole latency. Measuring from the trace's own start
	// keeps the traced hit path at a single clock read (the time.Since),
	// which is what holds tracing inside its ≤5% overhead budget.
	tr := trace.FromContext(ctx)
	var cacheStart time.Time
	if tr != nil {
		cacheStart = tr.Start()
	}
	p, gen, settings, fp, err := r.pool(name, opts...)
	if err != nil {
		return nil, core.Settings{}, "", false, err
	}
	key := cacheKey(name, gen, "detect", fp)

	var f *flight
	for {
		r.mu.Lock()
		if line, ok := r.cache[key]; ok {
			r.mu.Unlock()
			if tr != nil {
				tr.AddPhase(trace.PhaseCache, time.Since(cacheStart))
			}
			if r.m != nil {
				r.m.IncCacheHit()
			}
			return line, settings, fp, true, nil
		}
		lead, inFlight := r.flights[key]
		if !inFlight {
			f = &flight{done: make(chan struct{})}
			r.flights[key] = f
			r.mu.Unlock()
			break
		}
		r.mu.Unlock()
		if r.m != nil {
			r.m.IncCollapsed()
		}
		select {
		case <-lead.done:
			if leaderCancelled(lead.err) && ctx.Err() == nil {
				continue // dead leader, live follower: take over
			}
			if tr != nil {
				tr.AddPhase(trace.PhaseCache, time.Since(cacheStart))
			}
			return lead.line, settings, fp, false, lead.err
		case <-ctx.Done():
			return nil, settings, fp, false, fmt.Errorf("serve: %w", ctx.Err())
		}
	}
	if tr != nil {
		tr.AddPhase(trace.PhaseCache, time.Since(cacheStart))
	}
	if r.m != nil {
		r.m.IncCacheMiss()
	}

	res, err := p.Detect(ctx)
	f.err = err

	r.mu.Lock()
	delete(r.flights, key)
	if err == nil {
		// A stream may have filled the line meanwhile; answer from it, so
		// its detections are encoded once.
		if line, dup := r.cache[key]; dup {
			f.line = line
		} else {
			f.line = &detectLine{res: res}
			r.cache[key] = f.line
			r.rememberLocked(key)
		}
	}
	r.mu.Unlock()
	close(f.done)
	return f.line, settings, fp, false, err
}

// leaderCancelled reports whether a flight failed with its leader's context
// cancellation — an error that says nothing about the followers' requests.
func leaderCancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// DetectCommunity serves a single-seed detection of the named graph, cached
// per (generation, fingerprint, seed) like Detect. The returned slice is
// shared; treat it as read-only.
func (r *Registry) DetectCommunity(ctx context.Context, name string, seed int, opts ...core.Option) ([]int, core.CommunityStats, bool, error) {
	tr := trace.FromContext(ctx)
	var cacheStart time.Time
	if tr != nil {
		cacheStart = tr.Start() // see Detect: one clock read on the hit path
	}
	p, gen, _, fp, err := r.pool(name, opts...)
	if err != nil {
		return nil, core.CommunityStats{}, false, err
	}
	key := cacheKey(name, gen, fmt.Sprintf("community:%d", seed), fp)

	r.mu.Lock()
	if c, ok := r.comm[key]; ok {
		r.mu.Unlock()
		if tr != nil {
			tr.AddPhase(trace.PhaseCache, time.Since(cacheStart))
		}
		if r.m != nil {
			r.m.IncCacheHit()
		}
		return c.community, c.stats, true, nil
	}
	r.mu.Unlock()
	if tr != nil {
		tr.AddPhase(trace.PhaseCache, time.Since(cacheStart))
	}
	if r.m != nil {
		r.m.IncCacheMiss()
	}

	out, stats, err := p.DetectCommunity(ctx, seed)
	if err != nil {
		return nil, stats, false, err
	}
	r.mu.Lock()
	if _, dup := r.comm[key]; !dup {
		r.comm[key] = commCached{community: out, stats: stats, fp: fp}
		r.rememberLocked(key)
	}
	r.mu.Unlock()
	return out, stats, false, nil
}

// Stream serves a streaming detection of the named graph. Streams consult
// the same full-run cache line as Detect: a hit replays the cached
// detections without burning a pooled handle — bit-identical to a live run,
// since every run is deterministic in its resolved settings. A miss runs
// live on a pooled handle and, when the iteration completes un-broken,
// populates the full-run line; for the engines whose pool loop is exactly
// the single-seed path (reference and congest), each arriving detection
// also seeds the per-seed lines DetectCommunity reads, so one stream warms
// the cache for every later request shape.
func (r *Registry) Stream(ctx context.Context, name string, opts ...core.Option) (func(yield func(core.Detection, error) bool), error) {
	p, gen, settings, fp, err := r.pool(name, opts...)
	if err != nil {
		return nil, err
	}
	key := cacheKey(name, gen, "detect", fp)

	r.mu.Lock()
	line, hit := r.cache[key]
	r.mu.Unlock()
	if hit {
		if r.m != nil {
			r.m.IncCacheHit()
		}
		return func(yield func(core.Detection, error) bool) {
			for _, det := range line.res.Detections {
				if !yield(det, nil) {
					return
				}
			}
		}, nil
	}
	if r.m != nil {
		r.m.IncCacheMiss()
	}

	// The parallel engine freezes communities at overlap resolution, not on
	// the single-seed path, so only reference/congest detections may seed
	// the per-seed cache lines.
	seedable := settings.Engine != core.EngineParallel
	return func(yield func(core.Detection, error) bool) {
		var dets []core.Detection
		for det, err := range p.Stream(ctx) {
			if err != nil {
				yield(det, err)
				return
			}
			dets = append(dets, det)
			if seedable {
				ckey := cacheKey(name, gen, fmt.Sprintf("community:%d", det.Stats.Seed), fp)
				r.mu.Lock()
				if _, dup := r.comm[ckey]; !dup {
					r.comm[ckey] = commCached{community: det.Raw, stats: det.Stats, fp: fp}
					r.rememberLocked(ckey)
				}
				r.mu.Unlock()
			}
			if !yield(det, nil) {
				return
			}
		}
		r.mu.Lock()
		if _, dup := r.cache[key]; !dup {
			r.cache[key] = &detectLine{res: &core.Result{Detections: dets}}
			r.rememberLocked(key)
		}
		r.mu.Unlock()
	}, nil
}
