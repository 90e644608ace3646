package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"

	"cdrw/internal/serve"
)

// Handler returns the shard-to-shard protocol surface; serve mounts it
// under /cluster/ (patterns carry the prefix, so no stripping happens):
//
//	POST   /cluster/join                          gossip membership step
//	GET    /cluster/info                          membership view
//	POST   /cluster/sessions                      create a detection session
//	DELETE /cluster/sessions/{sid}                drop a session
//	POST   /cluster/sessions/{sid}/advance        drive one flood round
//	POST   /cluster/sessions/{sid}/heartbeat      driver liveness beat
//	GET    /cluster/sessions/{sid}/shares         pull frozen boundary shares
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/join", n.handleJoin)
	mux.HandleFunc("GET /cluster/info", n.handleInfo)
	mux.HandleFunc("POST /cluster/sessions", n.handleCreateSession)
	mux.HandleFunc("DELETE /cluster/sessions/{sid}", n.handleDeleteSession)
	mux.HandleFunc("POST /cluster/sessions/{sid}/advance", n.handleAdvance)
	mux.HandleFunc("POST /cluster/sessions/{sid}/heartbeat", n.handleHeartbeat)
	mux.HandleFunc("GET /cluster/sessions/{sid}/shares", n.handleShares)
	return mux
}

// clusterError maps a protocol failure to a status: 503 for unsettled
// membership, 400 for requests malformed in themselves (bodies, params),
// 502 for a dead peer observed downstream, and 409 for genuine
// round-protocol conflicts (unknown sessions, out-of-order rounds,
// mismatched graphs) — the classes a driver treats differently.
func clusterError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var pe *PeerError
	switch {
	case errors.Is(err, serve.ErrClusterNotReady):
		status = http.StatusServiceUnavailable
	case errors.Is(err, errBadRequest):
		status = http.StatusBadRequest
	case errors.As(err, &pe):
		status = http.StatusBadGateway
	case errors.Is(err, errCluster):
		status = http.StatusConflict
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		clusterError(w, fmt.Errorf("%w: bad join body: %v", errBadRequest, err))
		return
	}
	n.merge(append(req.Members, req.Advertise))
	st := n.Status()
	writeJSON(w, joinResponse{Members: st.Members, Size: st.Size})
}

func (n *Node) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, n.Status())
}

func (n *Node) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		clusterError(w, fmt.Errorf("%w: bad session body: %v", errBadRequest, err))
		return
	}
	if err := n.createSession(req); err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, map[string]string{"session": req.Session})
}

func (n *Node) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	n.dropSession(r.PathValue("sid"))
	writeJSON(w, map[string]string{"deleted": r.PathValue("sid")})
}

func (n *Node) handleAdvance(w http.ResponseWriter, r *http.Request) {
	s, err := n.session(r.PathValue("sid"))
	if err != nil {
		clusterError(w, err)
		return
	}
	var req advanceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		clusterError(w, fmt.Errorf("%w: bad advance body: %v", errBadRequest, err))
		return
	}
	resp, err := s.advance(r.Context(), req)
	if err != nil {
		clusterError(w, err)
		return
	}
	// The driver stamps traced detections with its request id; logging it
	// here ties this shard's round work to the driver's trace.
	if id := r.Header.Get("X-Request-Id"); id != "" && resp.T != nil {
		slog.Debug("cluster round advanced", "request_id", id, "session", s.id,
			"round", req.Round, "freeze_ns", resp.T.FreezeNS, "pull_ns", resp.T.PullNS, "gather_ns", resp.T.GatherNS)
	}
	writeJSON(w, resp)
}

// handleHeartbeat records driver liveness for one session. A 200 means the
// session is alive here; an unknown session answers 409, telling the driver
// its state is gone (reaped or evicted) and the detection cannot complete.
func (n *Node) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	s, err := n.session(r.PathValue("sid"))
	if err != nil {
		clusterError(w, err)
		return
	}
	s.touch()
	writeJSON(w, map[string]string{"session": s.id})
}

// handleShares serves one frozen per-peer payload in the binary share codec
// (codec.go).
func (n *Node) handleShares(w http.ResponseWriter, r *http.Request) {
	s, err := n.session(r.PathValue("sid"))
	if err != nil {
		clusterError(w, err)
		return
	}
	round, err := strconv.Atoi(r.URL.Query().Get("round"))
	if err != nil {
		clusterError(w, fmt.Errorf("%w: bad round: %v", errBadRequest, err))
		return
	}
	to, err := strconv.Atoi(r.URL.Query().Get("to"))
	if err != nil {
		clusterError(w, fmt.Errorf("%w: bad to: %v", errBadRequest, err))
		return
	}
	shares, err := s.shares(r.Context(), round, to)
	if err != nil {
		clusterError(w, err)
		return
	}
	payload, err := encodeShares(round, shares)
	if err != nil {
		clusterError(w, err)
		return
	}
	w.Header().Set("Content-Type", shareContentType)
	_, _ = w.Write(payload)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
