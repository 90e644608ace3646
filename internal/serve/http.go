package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cdrw/internal/core"
	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/metrics"
	"cdrw/internal/rng"
	"cdrw/internal/trace"
)

// maxUploadBytes bounds edge-list uploads and JSON bodies (64 MiB is ~2.7M
// edges in the text format — far above the experiment scales, far below a
// memory hazard).
const maxUploadBytes = 64 << 20

// OptionsJSON is the request-side option surface of the daemon: the subset
// of the unified Detector options that make sense per request, in JSON.
// Pointer fields distinguish "absent" (inherit the graph's base options)
// from explicit zero values.
type OptionsJSON struct {
	// Engine selects reference, parallel or congest ("" inherits).
	Engine string `json:"engine,omitempty"`
	// Delta is the stop-rule slack δ.
	Delta *float64 `json:"delta,omitempty"`
	// MinCommunitySize is the initial candidate size R.
	MinCommunitySize *int `json:"min_community_size,omitempty"`
	// MaxWalkLength caps the walk length.
	MaxWalkLength *int `json:"max_walk_length,omitempty"`
	// Patience is the stalled-step tolerance of the stop rule.
	Patience *int `json:"patience,omitempty"`
	// Seed fixes pool sampling (part of the cache key, like every option).
	Seed *uint64 `json:"seed,omitempty"`
	// Communities is the parallel engine's r estimate.
	Communities *int `json:"communities,omitempty"`
	// TreeDepthLimit and CongestBatch are the CONGEST knobs.
	TreeDepthLimit *int `json:"tree_depth_limit,omitempty"`
	CongestBatch   *int `json:"congest_batch,omitempty"`
}

// Options translates the JSON surface into core options.
func (o OptionsJSON) Options() ([]core.Option, error) {
	var opts []core.Option
	if o.Engine != "" {
		e, err := core.ParseEngine(o.Engine)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithEngine(e))
	}
	if o.Delta != nil {
		opts = append(opts, core.WithDelta(*o.Delta))
	}
	if o.MinCommunitySize != nil {
		opts = append(opts, core.WithMinCommunitySize(*o.MinCommunitySize))
	}
	if o.MaxWalkLength != nil {
		opts = append(opts, core.WithMaxWalkLength(*o.MaxWalkLength))
	}
	if o.Patience != nil {
		opts = append(opts, core.WithPatience(*o.Patience))
	}
	if o.Seed != nil {
		opts = append(opts, core.WithSeed(*o.Seed))
	}
	if o.Communities != nil {
		opts = append(opts, core.WithCommunityEstimate(*o.Communities))
	}
	if o.TreeDepthLimit != nil {
		opts = append(opts, core.WithTreeDepthLimit(*o.TreeDepthLimit))
	}
	if o.CongestBatch != nil {
		opts = append(opts, core.WithCongestBatch(*o.CongestBatch))
	}
	return opts, nil
}

// statsJSON is core.CommunityStats on the wire.
type statsJSON struct {
	Seed         int  `json:"seed"`
	WalkLength   int  `json:"walk_length"`
	Stopped      bool `json:"stopped"`
	FinalSetSize int  `json:"final_set_size"`
	SizesChecked int  `json:"sizes_checked"`
	FrozenAt     int  `json:"frozen_at"`
}

func toStatsJSON(s core.CommunityStats) statsJSON {
	return statsJSON{
		Seed:         s.Seed,
		WalkLength:   s.WalkLength,
		Stopped:      s.Stopped,
		FinalSetSize: s.FinalSetSize,
		SizesChecked: s.SizesChecked,
		FrozenAt:     s.FrozenAt,
	}
}

// detectionJSON is one Detection on the wire.
type detectionJSON struct {
	Raw      []int     `json:"raw"`
	Assigned []int     `json:"assigned"`
	Stats    statsJSON `json:"stats"`
}

func toDetectionJSON(d core.Detection) detectionJSON {
	return detectionJSON{Raw: d.Raw, Assigned: d.Assigned, Stats: toStatsJSON(d.Stats)}
}

// errorJSON is every error response's (and stream error line's) shape.
type errorJSON struct {
	Error string `json:"error"`
}

// server mounts the registry behind the HTTP surface.
type server struct {
	reg     *Registry
	m       *metrics.ServeMetrics
	cluster ClusterBackend // nil in single-process mode
	rec     *trace.Recorder
}

// NewHandler returns the cdrwd HTTP surface over reg:
//
//	GET    /healthz                  liveness
//	GET    /readyz                   readiness (503 until serveable)
//	GET    /metrics                  serving counters (Prometheus text)
//	GET    /graphs                   list registered graphs
//	PUT    /graphs/{name}            register a graph from an edge-list body
//	DELETE /graphs/{name}            drop a graph (pools + cached results)
//	PATCH  /graphs/{name}/edges      apply an NDJSON edge delta in place
//	POST   /graphs/{name}/generate   sample and register a PPM/Gnp graph
//	POST   /graphs/{name}/detect     full detection (cached, collapsed)
//	POST   /graphs/{name}/community  single-seed detection (cached)
//	POST   /graphs/{name}/stream     NDJSON stream of detections
//
// m may be nil; pass the same ServeMetrics the registry counts into so
// /metrics reports one coherent story.
func NewHandler(reg *Registry, m *metrics.ServeMetrics) http.Handler {
	return newHandler(reg, m, nil)
}

// NewClusterHandler is NewHandler with a cluster backend attached: detect and
// community requests are offered to the cluster first (falling back to the
// local pools when the backend declines), the shard-to-shard protocol is
// mounted under /cluster/, readiness additionally requires settled
// membership, and /metrics appends the cluster wire counters.
func NewClusterHandler(reg *Registry, m *metrics.ServeMetrics, cb ClusterBackend) http.Handler {
	return newHandler(reg, m, cb)
}

func newHandler(reg *Registry, m *metrics.ServeMetrics, cb ClusterBackend) http.Handler {
	s := &server{reg: reg, m: m, cluster: cb, rec: trace.NewRecorder(0)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /graphs", s.handleList)
	mux.HandleFunc("PUT /graphs/{name}", s.handleUpload)
	mux.HandleFunc("DELETE /graphs/{name}", s.handleDelete)
	mux.HandleFunc("PATCH /graphs/{name}/edges", s.handlePatchEdges)
	mux.HandleFunc("POST /graphs/{name}/generate", s.handleGenerate)
	mux.HandleFunc("POST /graphs/{name}/detect", s.handleDetect)
	mux.HandleFunc("POST /graphs/{name}/community", s.handleCommunity)
	mux.HandleFunc("POST /graphs/{name}/stream", s.handleStream)
	if cb != nil {
		mux.Handle("/cluster/", cb.Handler())
	}
	return s.instrument(mux)
}

// instrument counts every request and its latency, and threads the request
// trace. Every request gets an ID — accepted from an X-Request-Id header
// (so a client can name the trace it will fetch) or minted here — and
// echoes it in the response. Only /graphs/ requests record a trace into
// the ring: health probes, /metrics scrapes and the shard-to-shard link
// upgrade (whose round work the driver's trace records as per-rank spans)
// would drown the real detections. Errors are counted where they are written (writeError), which
// sees the status decision.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = trace.NewID()
		}
		w.Header().Set("X-Request-Id", id)
		var t *trace.Trace
		if strings.HasPrefix(r.URL.Path, "/graphs/") {
			t = trace.NewAt(id, r.Method+" "+r.URL.Path, start)
			r = r.WithContext(trace.NewContext(r.Context(), t))
		}
		if s.m != nil {
			s.m.IncRequest()
		}
		next.ServeHTTP(w, r)
		elapsed := time.Since(start)
		if s.m != nil {
			s.m.ObserveLatency(elapsed)
		}
		if t == nil {
			return
		}
		t.Finish(elapsed)
		s.rec.Add(t)
		if s.m != nil {
			for _, p := range trace.Phases() {
				if ns := t.PhaseNS(p); ns > 0 {
					s.m.ObservePhase(p, time.Duration(ns))
				}
			}
		}
		slog.Debug("request served", "request_id", id, "method", r.Method,
			"path", r.URL.Path, "duration", elapsed)
	})
}

// handleTraces serves the trace ring: the full newest-first listing, or one
// trace by ?id=. 404 for an ID the ring no longer holds — traces are a
// bounded flight recorder, not durable storage.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		t := s.rec.Get(id)
		if t == nil {
			s.writeError(w, http.StatusNotFound, fmt.Errorf("serve: no trace %q", id))
			return
		}
		writeJSON(w, t.Snapshot())
		return
	}
	writeJSON(w, struct {
		Traces []trace.Snapshot `json:"traces"`
	}{Traces: s.rec.Snapshots()})
}

func (s *server) writeError(w http.ResponseWriter, status int, err error) {
	if s.m != nil {
		s.m.IncError()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorJSON{Error: err.Error()})
}

// errStatus maps a serving error onto an HTTP status: unknown graphs are
// 404, cancelled requests 499 (the de-facto client-closed-request code),
// everything else a 400 — every remaining failure is a bad request
// (validation, out-of-range seeds), not a server fault.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 499
	case errors.Is(err, ErrUnknownGraph):
		return http.StatusNotFound
	case errors.Is(err, ErrClusterNotReady):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrCluster):
		return http.StatusBadGateway
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// handleHealthz is the liveness probe: the process is up and the mux is
// routing, nothing more. Restart on failure; see /readyz for serveability.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// readyzResponse is the readiness probe's body; Reason is only present on
// 503 and Cluster only in cluster mode.
type readyzResponse struct {
	Status  string         `json:"status"`
	Reason  string         `json:"reason,omitempty"`
	Cluster *ClusterStatus `json:"cluster,omitempty"`
}

// handleReadyz is the readiness probe: 200 once the shard can usefully
// answer detection traffic — at least one graph registered and, in cluster
// mode, membership settled — 503 with a reason until then. Not-ready is the
// probe doing its job, not a serving error, so it bypasses writeError and
// the error counter.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	resp := readyzResponse{Status: "ready"}
	status := http.StatusOK
	if s.cluster != nil {
		cs := s.cluster.Status()
		resp.Cluster = &cs
		if !s.cluster.Ready() {
			status = http.StatusServiceUnavailable
			resp.Status = "not ready"
			resp.Reason = fmt.Sprintf("cluster membership unsettled (%d of %d members)", len(cs.Members), cs.Size)
		}
	}
	if status == http.StatusOK && len(s.reg.Names()) == 0 {
		status = http.StatusServiceUnavailable
		resp.Status = "not ready"
		resp.Reason = "no graphs registered"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if s.m != nil {
		_ = s.m.WritePrometheus(w)
	}
	if s.cluster != nil {
		_ = s.cluster.WriteMetrics(w)
	}
	_ = metrics.WriteRuntime(w)
}

// graphInfoJSON is one registered graph in the listing.
type graphInfoJSON struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	names := s.reg.Names()
	out := struct {
		Graphs []graphInfoJSON `json:"graphs"`
	}{Graphs: make([]graphInfoJSON, 0, len(names))}
	for _, name := range names {
		if g, ok := s.reg.Graph(name); ok {
			out.Graphs = append(out.Graphs, graphInfoJSON{
				Name: name, Vertices: g.NumVertices(), Edges: g.NumEdges(),
			})
		}
	}
	writeJSON(w, out)
}

func (s *server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	g, err := graph.ReadEdgeList(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.reg.Register(name, g); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, graphInfoJSON{Name: name, Vertices: g.NumVertices(), Edges: g.NumEdges()})
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Remove(name) {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("%w %q", ErrUnknownGraph, name))
		return
	}
	writeJSON(w, map[string]string{"deleted": name})
}

// deltaLineJSON is one NDJSON line of a PATCH /graphs/{name}/edges body:
// {"op":"add","u":3,"v":17}. Op defaults to "add" when omitted.
type deltaLineJSON struct {
	Op string `json:"op,omitempty"`
	U  int    `json:"u"`
	V  int    `json:"v"`
}

// deltaResponse is the PATCH answer: serve.DeltaStats on the wire.
type deltaResponse struct {
	Graph       string  `json:"graph"`
	Generation  int     `json:"generation"`
	Added       int     `json:"added"`
	Removed     int     `json:"removed"`
	Kept        int     `json:"kept"`
	Reverified  int     `json:"reverified"`
	Evicted     int     `json:"evicted"`
	SwapSeconds float64 `json:"swap_seconds"`
}

// handlePatchEdges streams an NDJSON edge delta into Registry.ApplyDelta.
// Each body line is one deltaLineJSON; blank lines are skipped; the whole
// batch is applied as a single atomic generation swap (all-or-nothing — a
// bad line rejects the entire delta before anything mutates).
func (s *server) handlePatchEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	dec.DisallowUnknownFields()
	var adds, dels []graph.Edge
	for line := 1; ; line++ {
		var dl deltaLineJSON
		if err := dec.Decode(&dl); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: delta line %d: %w", line, err))
			return
		}
		switch dl.Op {
		case "", "add":
			adds = append(adds, graph.Edge{U: dl.U, V: dl.V})
		case "del":
			dels = append(dels, graph.Edge{U: dl.U, V: dl.V})
		default:
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("serve: delta line %d: unknown op %q (want add or del)", line, dl.Op))
			return
		}
	}
	stats, err := s.reg.ApplyDelta(r.Context(), name, adds, dels)
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, deltaResponse{
		Graph:       name,
		Generation:  stats.Generation,
		Added:       stats.Added,
		Removed:     stats.Removed,
		Kept:        stats.Kept,
		Reverified:  stats.Reverified,
		Evicted:     stats.Evicted,
		SwapSeconds: stats.SwapDuration.Seconds(),
	})
}

// generateRequest samples a graph server-side: the planted-partition model
// of the paper ("ppm", the default) or a plain Erdős–Rényi graph ("gnp").
// Seed is a pointer so an explicit 0 is honoured rather than defaulted.
type generateRequest struct {
	Model string  `json:"model,omitempty"`
	N     int     `json:"n"`
	R     int     `json:"r,omitempty"`
	P     float64 `json:"p"`
	Q     float64 `json:"q,omitempty"`
	Seed  *uint64 `json:"seed,omitempty"`
}

func (s *server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req generateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	seed := uint64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}
	var g *graph.Graph
	switch req.Model {
	case "", "ppm":
		if req.R == 0 {
			req.R = 2
		}
		ppm, err := gen.NewPPM(gen.PPMConfig{N: req.N, R: req.R, P: req.P, Q: req.Q}, rng.New(seed))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		g = ppm.Graph
	case "gnp":
		var err error
		g, err = gen.Gnp(req.N, req.P, rng.New(seed))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	default:
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown model %q (want ppm or gnp)", req.Model))
		return
	}
	if err := s.reg.Register(name, g); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, graphInfoJSON{Name: name, Vertices: g.NumVertices(), Edges: g.NumEdges()})
}

func (s *server) handleDetect(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req OptionsJSON
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	opts, err := req.Options()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	var (
		line     *detectLine
		settings core.Settings
		fp       string
		cached   bool
	)
	handled := false
	if s.cluster != nil {
		var res *core.Result
		res, settings, handled, err = s.cluster.Detect(r.Context(), name, opts...)
		line = &detectLine{res: res} // cluster runs are not cached
	}
	if !handled {
		line, settings, fp, cached, err = s.reg.detect(r.Context(), name, opts...)
	}
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	if handled {
		fp = settings.Fingerprint()
	}
	slog.Debug("detection served", "request_id", trace.FromContext(r.Context()).ID(),
		"graph", name, "engine", settings.Engine.String(), "cached", cached, "cluster", handled)
	writeDetect(w, name, fp, cached, line.detectionsJSON())
}

// detectHead is the full-run answer's fields before its detections.
type detectHead struct {
	Graph       string `json:"graph"`
	Fingerprint string `json:"fingerprint"`
	Cached      bool   `json:"cached"`
}

// writeDetect writes a full-run answer, {"graph","fingerprint","cached",
// "detections"} in that order: the head encoded as json.Encoder encodes it
// (HTML escaping included), then the line's stored detections, so a fresh,
// collapsed and cached answer differ only in "cached", and a hit costs a
// copy instead of an encoding.
func writeDetect(w http.ResponseWriter, name, fp string, cached bool, detections []byte) {
	// Two strings and a bool: the encoding cannot fail.
	head, _ := json.Marshal(detectHead{Graph: name, Fingerprint: fp, Cached: cached})
	head = append(head[:len(head)-1], `,"detections":`...) // reopen the object
	const tail = "}\n"
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(head)+len(detections)+len(tail)))
	// A failed write means the client is gone; no one is left to answer.
	_, _ = w.Write(head)
	_, _ = w.Write(detections)
	_, _ = io.WriteString(w, tail)
}

// communityRequest is a single-seed detection request.
type communityRequest struct {
	Seed    int         `json:"seed"`
	Options OptionsJSON `json:"options"`
}

// communityResponse is the single-seed answer.
type communityResponse struct {
	Graph     string    `json:"graph"`
	Cached    bool      `json:"cached"`
	Community []int     `json:"community"`
	Stats     statsJSON `json:"stats"`
}

func (s *server) handleCommunity(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req communityRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	opts, err := req.Options.Options()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	var (
		community []int
		stats     core.CommunityStats
		cached    bool
	)
	handled := false
	if s.cluster != nil {
		community, stats, _, handled, err = s.cluster.DetectCommunity(r.Context(), name, req.Seed, opts...)
	}
	if !handled {
		community, stats, cached, err = s.reg.DetectCommunity(r.Context(), name, req.Seed, opts...)
	}
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	slog.Debug("community served", "request_id", trace.FromContext(r.Context()).ID(),
		"graph", name, "seed", req.Seed, "cached", cached, "cluster", handled)
	writeJSON(w, communityResponse{Graph: name, Cached: cached, Community: community, Stats: toStatsJSON(stats)})
}

func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req OptionsJSON
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	opts, err := req.Options()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	seq, err := s.reg.Stream(r.Context(), name, opts...)
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	// NDJSON: one detection per line, flushed as it freezes; a run error
	// becomes one final {"error": ...} line (headers are long gone).
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for det, err := range seq {
		if err != nil {
			if s.m != nil {
				s.m.IncError()
			}
			_ = enc.Encode(errorJSON{Error: err.Error()})
			return
		}
		if encErr := enc.Encode(toDetectionJSON(det)); encErr != nil {
			return // client went away; Stream's range stops on the next yield
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// decodeJSON parses a bounded JSON body into v; an empty body decodes as
// the zero value so "run with the graph's defaults" needs no payload.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	return nil
}
