package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"cdrw/internal/serve"
)

// Handler returns the shard-to-shard protocol surface; serve mounts it
// under /cluster/ (patterns carry the prefix, so no stripping happens).
// HTTP carries the control plane; every per-round message travels as a
// frame on a link (link.go):
//
//	POST   /cluster/join                          gossip membership step
//	GET    /cluster/info                          membership view
//	GET    /cluster/link                          upgrade to a frame stream from the caller
//	POST   /cluster/sessions                      create a detection session
//	DELETE /cluster/sessions/{sid}                drop a session
//	POST   /cluster/sessions/{sid}/heartbeat      driver liveness beat
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/join", n.handleJoin)
	mux.HandleFunc("GET /cluster/info", n.handleInfo)
	mux.HandleFunc("GET /cluster/link", n.handleLink)
	mux.HandleFunc("POST /cluster/sessions", n.handleCreateSession)
	mux.HandleFunc("DELETE /cluster/sessions/{sid}", n.handleDeleteSession)
	mux.HandleFunc("POST /cluster/sessions/{sid}/heartbeat", n.handleHeartbeat)
	return mux
}

// maxControlBody bounds the JSON control bodies (join, session): a member
// list and a few scalars, far below this.
const maxControlBody = 64 << 10

// errStatus maps a protocol failure to a status: 503 for unsettled
// membership, 413 for a body over its bound, 400 for requests malformed in
// themselves, 502 for a dead peer observed downstream, and 409 for genuine
// round-protocol conflicts (unknown sessions, out-of-order rounds,
// mismatched graphs) — the classes a driver treats differently. Error
// frames carry the same status, and a failure an error frame reported
// keeps its own.
func errStatus(err error) int {
	var re *remoteError
	var pe *PeerError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &re):
		return re.status
	case errors.Is(err, serve.ErrClusterNotReady):
		return http.StatusServiceUnavailable
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	case errors.As(err, &pe):
		return http.StatusBadGateway
	case errors.Is(err, errCluster):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// clusterError answers err with its errStatus.
func clusterError(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(errStatus(err))
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// decodeControl decodes a JSON control body read through a maxControlBody
// bound; an oversized body keeps its *http.MaxBytesError for the 413.
func decodeControl(w http.ResponseWriter, r *http.Request, what string, v any) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody)).Decode(v); err != nil {
		return fmt.Errorf("%w: bad %s body: %w", errBadRequest, what, err)
	}
	return nil
}

func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := decodeControl(w, r, "join", &req); err != nil {
		clusterError(w, err)
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
	if err := decodeControl(w, r, "session", &req); err != nil {
		clusterError(w, err)
		return
	}
	if _, err := n.createSession(req, r.Header.Get("X-Request-Id")); err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, map[string]string{"session": req.Session})
}

func (n *Node) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	n.dropSession(r.PathValue("sid"))
	writeJSON(w, map[string]string{"deleted": r.PathValue("sid")})
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

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
