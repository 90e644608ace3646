package cluster

import (
	"fmt"
	"io"
	"sync"
	"time"

	"cdrw/internal/metrics"
)

// WireMetrics counts what actually crossed the sockets, per machine link —
// the measured side of the Conversion-Theorem validation. Links are counted
// at the receiving shard, so every byte is counted exactly once and only
// real socket transfers count (a shard never sends to itself).
//
// Words count share entries — one probability value routed to a vertex
// owner, the unit the kmachine simulator's link loads are expressed in —
// while bytes count the whole frame, header included. Because one share
// frame carries a link's entire round, its word count IS that link's
// per-round load, and MaxLinkWords is directly comparable to the simulated
// Results.MaxLinkLoad.
type WireMetrics struct {
	mu         sync.Mutex
	k          int
	linkBytes  []int64 // k*k, from*k+to
	linkWords  []int64
	pulls      int64 // share frames received
	rounds     int64
	coordBytes int64
	coordWords int64 // walk-state entries routed in advance requests and replies
	evictions  int64 // members evicted after missed liveness probes
	maxWords   int64 // largest single-frame word count: measured max per-round link load
	maxBytes   int64

	// Per-advance stage timing on this shard. Histograms are internally
	// atomic, so they sit outside mu — observing a round never contends
	// with the link counters.
	stageFreeze metrics.Histogram
	stagePull   metrics.Histogram
	stageGather metrics.Histogram
}

// observeRoundStages records where one advance spent its time on this shard.
func (m *WireMetrics) observeRoundStages(freeze, pull, gather time.Duration) {
	m.stageFreeze.Observe(freeze)
	m.stagePull.Observe(pull)
	m.stageGather.Observe(gather)
}

// init sizes the per-link counters once membership settles.
func (m *WireMetrics) init(k int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.k != k {
		m.k = k
		m.linkBytes = make([]int64, k*k)
		m.linkWords = make([]int64, k*k)
	}
}

// addPull records one share frame received over the from→to machine link.
func (m *WireMetrics) addPull(from, to int, bytes, words int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pulls++
	if m.k > 0 && from >= 0 && from < m.k && to >= 0 && to < m.k {
		m.linkBytes[from*m.k+to] += bytes
		m.linkWords[from*m.k+to] += words
	}
	if words > m.maxWords {
		m.maxWords = words
	}
	if bytes > m.maxBytes {
		m.maxBytes = bytes
	}
}

// addRounds records completed flood rounds driven through this node.
func (m *WireMetrics) addRounds(n int64) {
	m.mu.Lock()
	m.rounds += n
	m.mu.Unlock()
}

// addCoord records driver↔shard coordination traffic (walk-state routing and
// the session's open, ack and close frames) — deliberately separate from the link counters: in the
// k-machine model the walk state lives on the machines, and only the
// shard↔shard share exchange is the traffic the Conversion Theorem bounds.
// words counts the walk-state entries the bytes routed (0 for control).
func (m *WireMetrics) addCoord(bytes, words int64) {
	m.mu.Lock()
	m.coordBytes += bytes
	m.coordWords += words
	m.mu.Unlock()
}

// addEviction records one member evicted after missed liveness probes.
func (m *WireMetrics) addEviction() {
	m.mu.Lock()
	m.evictions++
	m.mu.Unlock()
}

// MaxLinkWords returns the largest per-round word load measured on any
// machine link — the quantity to hold against the simulator's MaxLinkLoad.
func (m *WireMetrics) MaxLinkWords() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.maxWords
}

// TotalLinkBytes returns all share-frame bytes received across machine links.
func (m *WireMetrics) TotalLinkBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum int64
	for _, b := range m.linkBytes {
		sum += b
	}
	return sum
}

// TotalLinkWords returns all share words received across machine links; the
// bytes/word quotient against TotalLinkBytes is the codec's framing cost.
func (m *WireMetrics) TotalLinkWords() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum int64
	for _, w := range m.linkWords {
		sum += w
	}
	return sum
}

// Rounds returns the flood rounds driven through this node.
func (m *WireMetrics) Rounds() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rounds
}

// WritePrometheus appends the wire counters in Prometheus text exposition
// format; serve's /metrics endpoint calls it after the serving counters.
func (m *WireMetrics) WritePrometheus(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := fmt.Fprintf(w,
		"# HELP cdrw_cluster_pulls_total Share frames received across machine links.\n"+
			"# TYPE cdrw_cluster_pulls_total counter\n"+
			"cdrw_cluster_pulls_total %d\n"+
			"# HELP cdrw_cluster_rounds_total Flood rounds driven through this shard.\n"+
			"# TYPE cdrw_cluster_rounds_total counter\n"+
			"cdrw_cluster_rounds_total %d\n"+
			"# HELP cdrw_cluster_coord_bytes_total Driver-to-shard coordination bytes (walk-state routing, session open and close).\n"+
			"# TYPE cdrw_cluster_coord_bytes_total counter\n"+
			"cdrw_cluster_coord_bytes_total %d\n"+
			"# HELP cdrw_cluster_max_link_words Largest per-round share-word load measured on any machine link.\n"+
			"# TYPE cdrw_cluster_max_link_words gauge\n"+
			"cdrw_cluster_max_link_words %d\n"+
			"# HELP cdrw_cluster_max_link_bytes Largest per-round encoded payload on any machine link.\n"+
			"# TYPE cdrw_cluster_max_link_bytes gauge\n"+
			"cdrw_cluster_max_link_bytes %d\n"+
			"# HELP cdrw_cluster_evictions_total Members evicted after missed liveness probes.\n"+
			"# TYPE cdrw_cluster_evictions_total counter\n"+
			"cdrw_cluster_evictions_total %d\n",
		m.pulls, m.rounds, m.coordBytes, m.maxWords, m.maxBytes, m.evictions); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"# HELP cdrw_cluster_round_seconds Per-stage advance time on this shard (freeze and send outgoing shares, wait for peers' share frames, gather next-step mass).\n"+
			"# TYPE cdrw_cluster_round_seconds summary\n"); err != nil {
		return err
	}
	if err := m.stageFreeze.WriteSummary(w, "cdrw_cluster_round_seconds", `stage="freeze"`); err != nil {
		return err
	}
	if err := m.stagePull.WriteSummary(w, "cdrw_cluster_round_seconds", `stage="pull"`); err != nil {
		return err
	}
	if err := m.stageGather.WriteSummary(w, "cdrw_cluster_round_seconds", `stage="gather"`); err != nil {
		return err
	}
	if m.k > 0 {
		if _, err := fmt.Fprintf(w,
			"# HELP cdrw_cluster_wire_bytes_total Share-frame bytes received over each machine link.\n"+
				"# TYPE cdrw_cluster_wire_bytes_total counter\n"); err != nil {
			return err
		}
		for from := 0; from < m.k; from++ {
			for to := 0; to < m.k; to++ {
				if b := m.linkBytes[from*m.k+to]; b != 0 {
					if _, err := fmt.Fprintf(w, "cdrw_cluster_wire_bytes_total{from=\"%d\",to=\"%d\"} %d\n", from, to, b); err != nil {
						return err
					}
				}
			}
		}
		if _, err := fmt.Fprintf(w,
			"# HELP cdrw_cluster_wire_words_total Share words received over each machine link.\n"+
				"# TYPE cdrw_cluster_wire_words_total counter\n"); err != nil {
			return err
		}
		for from := 0; from < m.k; from++ {
			for to := 0; to < m.k; to++ {
				if words := m.linkWords[from*m.k+to]; words != 0 {
					if _, err := fmt.Fprintf(w, "cdrw_cluster_wire_words_total{from=\"%d\",to=\"%d\"} %d\n", from, to, words); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
