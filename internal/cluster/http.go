package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"cdrw/internal/serve"
)

// Handler returns the shard-to-shard membership surface; serve mounts it
// under /cluster/ (patterns carry the prefix, so no stripping happens).
// Sessions and their rounds travel as frames on the links (link.go).
//
//	POST /cluster/join   gossip membership step
//	GET  /cluster/info   membership view
//	GET  /cluster/link   upgrade to a frame stream from the caller
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/join", n.handleJoin)
	mux.HandleFunc("GET /cluster/info", n.handleInfo)
	mux.HandleFunc("GET /cluster/link", n.handleLink)
	return mux
}

// maxControlBody bounds the JSON control bodies (a join, a session's open
// frame): a member list and a few scalars, far below this.
const maxControlBody = 64 << 10

// errStatus maps a protocol failure to a status: 503 for unsettled
// membership, 413 for a body or open frame over its bound, 400 for
// requests malformed in themselves, 502 for a dead peer observed
// downstream, and 409 for genuine round-protocol conflicts (unknown or
// duplicate sessions, out-of-order rounds, mismatched graphs) — the classes
// a driver treats differently. Error frames carry the same status, and a
// failure an error frame reported keeps its own.
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

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
