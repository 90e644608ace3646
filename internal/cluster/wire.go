package cluster

// The shard-to-shard control protocol is plain JSON over HTTP; the
// shares pull between shards travels in the compact binary codec
// (codec.go). Probability values are numerically exact on both paths: JSON
// marshals a float64 as the shortest decimal that round-trips to the same
// bits, and the binary codec carries the bits verbatim, so the
// bit-identity contract of congest.FloodTransport survives the wire.

// entry is one sparse (vertex, value) pair — a walk-state support entry on
// the driver↔shard path, a frozen share on the shard↔shard path.
type entry struct {
	V int32   `json:"v"`
	S float64 `json:"s"`
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
// every shard numbers ranks identically before any walk state moves.
type sessionRequest struct {
	Session       string   `json:"session"`
	Graph         string   `json:"graph"`
	Members       []string `json:"members"`
	Vertices      int      `json:"vertices"`
	Edges         int      `json:"edges"`
	PlacementSeed uint64   `json:"placement_seed"`
}

// advanceRequest drives one flood round on a shard: Support[w] is the sparse
// current distribution of walk w restricted to the shard's owned vertices.
// Rounds are numbered from 1 and must arrive in order.
type advanceRequest struct {
	Round   int       `json:"round"`
	Support [][]entry `json:"support"`
}

// advanceTiming reports where one advance spent its time on the shard, in
// nanoseconds: freezing outgoing boundary shares, pulling ghost shares
// from peers, and gathering next-step mass. The driver folds these into
// the request trace's per-shard spans. Optional and compatible both ways:
// a shard that omits it leaves the driver's spans empty, a driver that
// ignores it costs nothing.
type advanceTiming struct {
	FreezeNS int64 `json:"freeze_ns"`
	PullNS   int64 `json:"pull_ns"`
	GatherNS int64 `json:"gather_ns"`
}

// advanceResponse returns the next-step distribution of the shard's owned
// vertices, sparse, one slice per walk of the request.
type advanceResponse struct {
	Round   int            `json:"round"`
	Support [][]entry      `json:"support"`
	T       *advanceTiming `json:"t,omitempty"`
}

// heartbeatRequest is one driver liveness beat for a session; the shard
// answering 200 promises the session state is still live there.
type heartbeatRequest struct {
	Session string `json:"session"`
}
