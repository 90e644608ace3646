package serve

import (
	"context"
	"errors"
	"io"
	"net/http"

	"cdrw/internal/core"
)

// ErrClusterNotReady reports a cluster-routed request on a shard whose
// membership has not settled yet; the HTTP layer maps it to 503 (and the
// readiness probe reports not-ready for the same condition).
var ErrClusterNotReady = errors.New("serve: cluster membership not settled")

// ErrCluster marks failures of the cluster machinery itself — a peer link
// down mid-round, an inconsistent shard — as distinct from request
// validation errors; the HTTP layer maps it to 502.
var ErrCluster = errors.New("serve: cluster failure")

// ClusterStatus describes a shard's view of the cluster, for the readiness
// probe and the /cluster/info endpoint.
type ClusterStatus struct {
	// Advertise is this shard's advertised base URL.
	Advertise string `json:"advertise"`
	// Size is the expected member count k.
	Size int `json:"size"`
	// Members is the current membership view, sorted (rank order once
	// settled).
	Members []string `json:"members"`
	// Settled reports whether all k members are known.
	Settled bool `json:"settled"`
	// Rank is this shard's index in the sorted member list (-1 before the
	// membership settles).
	Rank int `json:"rank"`
}

// ClusterBackend is the hook a cluster layer (internal/cluster) plugs into
// the HTTP surface: detect-style requests are offered to the backend first
// and served locally only when it declines them. The interface lives here —
// not in the cluster package — so serve never imports its own consumer.
type ClusterBackend interface {
	// Ready reports whether the shard can serve cluster-routed requests
	// (membership settled). The readiness probe consults it.
	Ready() bool
	// Status returns the shard's membership view.
	Status() ClusterStatus
	// Detect offers a full-run detection to the cluster. handled=false
	// means the request is not cluster-executable (e.g. a non-CONGEST
	// engine) and the caller must serve it locally; handled=true with a
	// non-nil error is a cluster failure the caller maps to a status.
	Detect(ctx context.Context, name string, opts ...core.Option) (res *core.Result, settings core.Settings, handled bool, err error)
	// DetectCommunity is Detect for a single seed.
	DetectCommunity(ctx context.Context, name string, seed int, opts ...core.Option) (community []int, stats core.CommunityStats, settings core.Settings, handled bool, err error)
	// Handler serves the shard-to-shard membership surface (join, info
	// and the link upgrade; sessions and rounds ride the links); the HTTP
	// surface mounts it under /cluster/.
	Handler() http.Handler
	// WriteMetrics appends the cluster's wire counters to a Prometheus
	// text exposition (the /metrics endpoint calls it after the serving
	// counters).
	WriteMetrics(w io.Writer) error
}
