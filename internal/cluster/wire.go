package cluster

// The control protocol (membership, sessions, heartbeats) is plain JSON
// over HTTP. Every per-round message — the driver↔shard advance and reply
// and the shard↔shard shares — travels as a frame on a link (link.go) in
// the compact binary round codec (codec.go), which carries probability
// values' bits verbatim, so the bit-identity contract of
// congest.FloodTransport survives the wire.

// entry is one sparse (vertex, value) pair — a walk-state support entry on
// the driver↔shard path, a frozen share on the shard↔shard path.
type entry struct {
	V int32
	S float64
}

// joinRequest is one gossip step of the coordinator-free membership
// protocol: the sender introduces itself and everything it knows.
type joinRequest struct {
	Advertise string   `json:"advertise"`
	Members   []string `json:"members"`
}

// joinResponse returns the receiver's merged view.
type joinResponse struct {
	Members []string `json:"members"`
	Size    int      `json:"size"`
}

// sessionRequest creates one detection session on a shard. Vertices/Edges
// pin that every shard holds the same replicated graph; Members pins that
// every shard numbers ranks identically before any walk state moves. Walks
// is the most walks one advance of the session carries (the driver's batch
// size; values below 1 mean 1): with the shards' owned-vertex counts it
// bounds the session's frames.
type sessionRequest struct {
	Session       string   `json:"session"`
	Graph         string   `json:"graph"`
	Members       []string `json:"members"`
	Vertices      int      `json:"vertices"`
	Edges         int      `json:"edges"`
	PlacementSeed uint64   `json:"placement_seed"`
	Walks         int      `json:"walks"`
}

// advanceRequest drives one flood round on a shard: Support[w] is the sparse
// current distribution of walk w restricted to the shard's owned vertices,
// ascending. Rounds are numbered from 1 and must arrive in order.
type advanceRequest struct {
	Round   int
	Support [][]entry
}

// advanceTiming reports where one advance spent its time on the shard, in
// nanoseconds: freezing and sending outgoing boundary shares, waiting for
// the peers' share frames, and gathering next-step mass. The driver folds
// these into the request trace's per-shard spans.
type advanceTiming struct {
	FreezeNS int64
	PullNS   int64
	GatherNS int64
}

// advanceResponse returns the next-step distribution of the shard's owned
// vertices, sparse and ascending, one slice per walk of the request.
type advanceResponse struct {
	Round   int
	Support [][]entry
	T       advanceTiming
}

// heartbeatRequest is one driver liveness beat for a session; the shard
// answering 200 promises the session state is still live there.
type heartbeatRequest struct {
	Session string `json:"session"`
}
