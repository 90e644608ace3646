package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cdrw/internal/core"
	"cdrw/internal/serve"
)

// faultConfig is the failure-detection tuning the fault tests run under:
// tight deadlines so a whole kill-and-recover cycle fits in a few hundred
// milliseconds.
func faultConfig(cfg *Config) {
	cfg.PeerTimeout = 400 * time.Millisecond
	cfg.HeartbeatInterval = 50 * time.Millisecond
}

// startFaultCluster boots k shards like startCluster, with the fault-test
// failure knobs, started background loops (gossip and liveness probes), and
// an optional per-rank handler wrapper for injecting stalls.
func startFaultCluster(t testing.TB, k int, placementSeed uint64, wrap func(rank int, urls []string, h http.Handler) http.Handler) *testCluster {
	t.Helper()
	tc := bootCluster(t, k, placementSeed, faultConfig, wrap)
	for _, node := range tc.nodes {
		node.Start()
	}
	return tc
}

// kill simulates one shard's death: its HTTP server drops every connection
// and its background loops stop, as when the process dies.
func (tc *testCluster) kill(rank int) {
	_ = tc.srvs[rank].Close()
	tc.nodes[rank].Stop()
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not true within %v", what, d)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// linkGate holds the frames on the link one shard dials into another: the
// receiving node hijacks the connection as usual and reads its frames, but
// the read that completes the driver's advance frame of round signals hit
// and returns only at release (or when the connection closes), so that
// advance and every frame after it stay unread.
type linkGate struct {
	inner   http.Handler
	from    string
	round   int
	hit     chan struct{}
	release chan struct{}
	once    sync.Once
}

func newLinkGate(round int) *linkGate {
	return &linkGate{round: round, hit: make(chan struct{}), release: make(chan struct{})}
}

func (g *linkGate) wrap(h http.Handler) http.Handler {
	g.inner = h
	return g
}

func (g *linkGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/cluster/link" && r.Header.Get(linkFromHeader) == g.from {
		w = gatedWriter{w, g}
	}
	g.inner.ServeHTTP(w, r)
}

type gatedWriter struct {
	http.ResponseWriter
	g *linkGate
}

func (w gatedWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	conn, brw, err := w.ResponseWriter.(http.Hijacker).Hijack()
	return &gatedConn{Conn: conn, g: w.g, closed: make(chan struct{})}, brw, err
}

type gatedConn struct {
	net.Conn
	g         *linkGate
	pending   []byte // bytes read but not yet split into whole frames
	held      bool   // the gated advance has arrived
	closed    chan struct{}
	closeOnce sync.Once
}

func (c *gatedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if !c.held {
		c.pending = append(c.pending, p[:n]...)
		for !c.held {
			payload, rest, ok := splitFrame(c.pending)
			if !ok {
				return n, err
			}
			c.pending = rest
			req, derr := decodeAdvance(payload)
			c.held = derr == nil && req.Round == c.g.round
		}
	}
	c.g.once.Do(func() { close(c.g.hit) })
	select {
	case <-c.g.release:
		return n, err
	case <-c.closed:
		return 0, net.ErrClosed
	}
}

// splitFrame splits b's first whole frame off: its payload and the bytes
// after it, or ok=false while b holds no whole frame.
func splitFrame(b []byte) (payload, rest []byte, ok bool) {
	if len(b) == 0 || len(b) < 1+int(b[0])+4 {
		return nil, b, false
	}
	head := 1 + int(b[0]) + 4
	end := head + int(binary.BigEndian.Uint32(b[head-4:]))
	if len(b) < end {
		return nil, b, false
	}
	return b[head:end], b[end:], true
}

func (c *gatedConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestClusterKillShardMidDetection is the headline fault-injection run:
// one of 3 shards dies while a round's advance frame sits unread on its
// link. The driver must fail the detection with a typed *PeerError within
// the ~2 s failure budget — the dead shard's closed link fails the round at
// once — the survivors must evict the dead member and flip not-ready, and
// no session state may survive on them. The held advance is round 1's, or
// round 2's: the driver starts round 2 before step 1's ladder (no walk can
// end at step 1), so that round is in flight while the ladder runs.
func TestClusterKillShardMidDetection(t *testing.T) {
	for _, round := range []int{1, 2} {
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) { killShardInRound(t, round) })
	}
}

func killShardInRound(t *testing.T, round int) {
	baseline := runtime.NumGoroutine()
	g := clusterTestGraph(t)
	stall := newLinkGate(round)
	fc := startFaultCluster(t, 3, 42, func(rank int, urls []string, h http.Handler) http.Handler {
		if rank == 2 {
			stall.from = urls[0] // the driver's advances
			return stall.wrap(h)
		}
		return h
	})
	fc.register(t, "ppm", g)

	done := make(chan error, 1)
	go func() {
		_, _, handled, err := fc.nodes[0].Detect(context.Background(), "ppm",
			core.WithEngine(core.EngineCongest), core.WithSeed(9))
		if err == nil && !handled {
			err = errors.New("congest request not handled")
		}
		done <- err
	}()

	select {
	case <-stall.hit:
	case <-time.After(10 * time.Second):
		t.Fatalf("round %d never reached shard 2's link", round)
	}
	killed := time.Now()
	fc.kill(2)
	close(stall.release)

	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("detection still wedged 10s after the shard died")
	}
	elapsed := time.Since(killed)
	if err == nil {
		t.Fatal("detection succeeded with a dead shard")
	}
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PeerError, got %T: %v", err, err)
	}
	if !errors.Is(err, serve.ErrCluster) {
		t.Fatalf("peer error must carry the 502 cluster class, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("driver took %v after the kill to fail, want <= 2s", elapsed)
	}
	t.Logf("driver failed %v after the kill: %v", elapsed, err)

	// Survivors evict the dead member: membership un-settles, /readyz's
	// backing state flips to not-ready, and the eviction is counted.
	for _, rank := range []int{0, 1} {
		node := fc.nodes[rank]
		eventually(t, 5*time.Second, "survivor flips not-ready", func() bool {
			return !node.Ready()
		})
	}
	if fc.nodes[0].Metrics().Evictions() == 0 && fc.nodes[1].Metrics().Evictions() == 0 {
		t.Fatal("no survivor recorded an eviction")
	}

	// No leaked session state or goroutines: the driver's close frames
	// plus eviction drop every session, and all parked protocol waiters
	// unwind. The survivors' links to each other stay open.
	for _, rank := range []int{0, 1} {
		node := fc.nodes[rank]
		eventually(t, 5*time.Second, "survivor sessions drain", func() bool {
			return node.sessionCount() == 0
		})
	}
	eventually(t, 5*time.Second, "goroutines return to baseline", func() bool {
		for _, node := range fc.nodes {
			node.client.CloseIdleConnections() // keepalive readers aren't leaks
		}
		return runtime.NumGoroutine() <= baseline+8
	})
}

// TestClusterCancelStartedRound cancels a request while its started round
// is in flight: round 2 starts before step 1's ladder, and its advance sits
// unread on shard 2's link. The detection must return the context's error
// within PeerTimeout, every shard must read cdrw_cluster_open_sessions 0,
// no goroutine may stay behind, and the next detection on the same shards
// must equal the in-process CONGEST run.
func TestClusterCancelStartedRound(t *testing.T) {
	g := clusterTestGraph(t)
	stall := newLinkGate(2)
	fc := startFaultCluster(t, 3, 42, func(rank int, urls []string, h http.Handler) http.Handler {
		if rank == 2 {
			stall.from = urls[0]
			return stall.wrap(h)
		}
		return h
	})
	fc.register(t, "ppm", g)
	opts := []core.Option{core.WithEngine(core.EngineCongest), core.WithSeed(9)}
	// A detection driven from shard 1 opens every link, whose readers are
	// then part of the baseline; the gated link carries no advance in it.
	if _, _, _, err := fc.nodes[1].Detect(context.Background(), "ppm", opts...); err != nil {
		t.Fatal(err)
	}
	for _, node := range fc.nodes {
		node.client.CloseIdleConnections()
	}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, _, err := fc.nodes[0].Detect(ctx, "ppm", opts...)
		done <- err
	}()
	select {
	case <-stall.hit:
	case <-time.After(10 * time.Second):
		t.Fatal("round 2 never reached shard 2's link")
	}
	cancelled := time.Now()
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("detection still wedged 10s after its context was cancelled")
	}
	elapsed := time.Since(cancelled)
	close(stall.release)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if limit := fc.nodes[0].peerTimeout; elapsed > limit {
		t.Fatalf("driver took %v after the cancel to return, want <= %v", elapsed, limit)
	}

	for rank, node := range fc.nodes {
		eventually(t, 5*time.Second, fmt.Sprintf("shard %d reads no open session", rank), func() bool {
			var sb strings.Builder
			if err := node.WriteMetrics(&sb); err != nil {
				t.Fatal(err)
			}
			return strings.Contains(sb.String(), "\ncdrw_cluster_open_sessions 0\n")
		})
	}
	eventually(t, 5*time.Second, "goroutines return to baseline", func() bool {
		for _, node := range fc.nodes {
			node.client.CloseIdleConnections()
		}
		return runtime.NumGoroutine() <= baseline+8
	})

	det, err := core.NewDetector(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := det.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := fc.nodes[0].Detect(context.Background(), "ppm", opts...)
	if err != nil {
		t.Fatalf("detection after the cancelled one: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("detection after the cancelled one diverged from the in-process run")
	}
}

// silentLinks answers every link upgrade itself and then holds the
// connection without reading or writing: a peer that accepts the link and
// never sends a frame.
type silentLinks struct {
	inner http.Handler
	mu    sync.Mutex
	held  []net.Conn
}

func (s *silentLinks) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/cluster/link" {
		s.inner.ServeHTTP(w, r)
		return
	}
	conn, _, err := w.(http.Hijacker).Hijack()
	if err != nil {
		return
	}
	_, _ = conn.Write([]byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + linkProtocol + "\r\n\r\n"))
	s.mu.Lock()
	s.held = append(s.held, conn)
	s.mu.Unlock()
}

func (s *silentLinks) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.held {
		c.Close()
	}
}

// TestClusterStalledLink stalls the protocol at its other vulnerable
// point: a peer that accepts the link and never writes a frame. The round's
// own deadlines (not the caller's context) must bound the stall, and the
// driver must surface a typed error within the failure budget.
func TestClusterStalledLink(t *testing.T) {
	g := clusterTestGraph(t)
	silent := &silentLinks{}
	fc := startFaultCluster(t, 3, 42, func(rank int, _ []string, h http.Handler) http.Handler {
		if rank == 2 {
			silent.inner = h
			return silent
		}
		return h
	})
	defer silent.close()
	fc.register(t, "ppm", g)

	start := time.Now()
	_, _, handled, err := fc.nodes[0].Detect(context.Background(), "ppm",
		core.WithEngine(core.EngineCongest), core.WithSeed(9))
	elapsed := time.Since(start)
	if !handled {
		t.Fatal("not handled")
	}
	if err == nil {
		t.Fatal("detection succeeded through a silent link")
	}
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Peer != fc.urls[2] {
		t.Fatalf("want a *PeerError naming the silent shard %s, got %v", fc.urls[2], err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("silent link took %v to fail, want <= 2s", elapsed)
	}
}

// TestLinkBoundedWithoutDeadline: opening a link to a peer that accepts
// the connection and never answers the upgrade returns within the peer
// deadline, though the send carries no context at all.
func TestLinkBoundedWithoutDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold the connection open, never respond
		}
	}()

	reg := serve.NewRegistry(1, nil)
	cfg := Config{Size: 2, Advertise: "http://" + ln.Addr().String(), Join: []string{"http://stub"}}
	faultConfig(&cfg)
	node, err := New(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	start := time.Now()
	_, err = node.send("http://"+ln.Addr().String(), "s1", []byte{shareMagic, codecVersion, 1, 0})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("send to a silent peer succeeded")
	}
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PeerError, got %T: %v", err, err)
	}
	if elapsed > 2*cfg.PeerTimeout {
		t.Fatalf("undeadlined send took %v, want <= %v", elapsed, 2*cfg.PeerTimeout)
	}
}

// TestClusterKillDriverMidDetection: the driver dies while round 1's
// advance sits unread on shard 1's link from it. Its links close, so both
// survivors drop its session, and no goroutine outlives it.
func TestClusterKillDriverMidDetection(t *testing.T) {
	baseline := runtime.NumGoroutine()
	stall := newLinkGate(1)
	fc := startFaultCluster(t, 3, 42, func(rank int, urls []string, h http.Handler) http.Handler {
		if rank == 1 {
			stall.from = urls[0]
			return stall.wrap(h)
		}
		return h
	})
	fc.register(t, "ppm", clusterTestGraph(t))

	done := make(chan error, 1)
	go func() {
		_, _, _, err := fc.nodes[0].Detect(context.Background(), "ppm",
			core.WithEngine(core.EngineCongest), core.WithSeed(9))
		done <- err
	}()
	select {
	case <-stall.hit:
	case <-time.After(10 * time.Second):
		t.Fatal("round 1 never reached shard 1's link")
	}
	fc.kill(0)
	close(stall.release)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("detection succeeded on a killed driver")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the killed driver's detection still wedged after 10s")
	}

	for _, rank := range []int{1, 2} {
		node := fc.nodes[rank]
		eventually(t, 5*time.Second, "survivor sessions drain", func() bool {
			return node.sessionCount() == 0
		})
	}
	eventually(t, 5*time.Second, "goroutines return to baseline", func() bool {
		for _, node := range fc.nodes {
			node.client.CloseIdleConnections()
		}
		return runtime.NumGoroutine() <= baseline+8
	})
}

// openOnRawLink opens session id on tc.nodes[0] with an open frame on a raw
// link from tc.nodes[1], its driver, and returns the link and the session
// once it is installed.
func openOnRawLink(t *testing.T, tc *testCluster, id string) (net.Conn, *session) {
	t.Helper()
	conn := dialRawLink(t, tc.urls[0], tc.urls[1])
	if _, err := conn.Write(appendFrame(nil, id, encodeOpen(ppmSession(t, tc, 1)))); err != nil {
		t.Fatal(err)
	}
	var s *session
	node := tc.nodes[0]
	eventually(t, 5*time.Second, "session opened by its open frame", func() bool {
		node.mu.Lock()
		defer node.mu.Unlock()
		s = node.sessions[id]
		return s != nil
	})
	return conn, s
}

// TestSessionDropsWithDriverLink pins the orphan cleanup: a session lives
// on its driver's links, so one opened by an open frame is gone within
// 200 ms of that link closing, an advance whose gather is parked on it
// unwinds with a cluster-class error rather than wedging, and the node
// stays ready. A dropped session unparks its gather at once.
func TestSessionDropsWithDriverLink(t *testing.T) {
	fc := startFaultCluster(t, 2, 1, nil)
	fc.register(t, "ppm", clusterTestGraph(t))

	node := fc.nodes[0]
	park := func(s *session) chan error {
		parked := make(chan error, 1)
		go func() {
			// The peer holds no such session, so no share frame comes back.
			_, err := s.advance(context.Background(), advanceRequest{Round: 1, Support: [][]entry{nil}})
			parked <- err
		}()
		time.Sleep(20 * time.Millisecond)
		return parked
	}
	unparked := func(parked chan error, what string) {
		t.Helper()
		select {
		case err := <-parked:
			if !errors.Is(err, serve.ErrCluster) || !strings.Contains(err.Error(), "closed") {
				t.Fatalf("gather parked on a %s session: want a closed-session cluster error, got %v", what, err)
			}
		case <-time.After(200 * time.Millisecond):
			t.Fatalf("gather still parked 200ms after its session was %s", what)
		}
	}

	s, err := node.createSession("dropped", ppmSession(t, fc, 1), fc.urls[1])
	if err != nil {
		t.Fatal(err)
	}
	dropped := park(s)
	node.dropSession("dropped", "test")
	unparked(dropped, "dropped")

	conn, s := openOnRawLink(t, fc, "orphan")
	parked := park(s)
	conn.Close()
	eventually(t, 200*time.Millisecond, "session dropped with its driver's link", func() bool {
		return node.sessionCount() == 0
	})
	unparked(parked, "orphaned")
	if !node.Ready() {
		t.Fatal("the driver's closed link evicted a live member")
	}
}

// TestClusterIdleSessionStaysOpen: a session whose driver's link stays
// open is not dropped however long the driver computes between frames —
// 8× the peer deadline here, with every background loop running.
func TestClusterIdleSessionStaysOpen(t *testing.T) {
	fc := startFaultCluster(t, 2, 1, nil)
	fc.register(t, "ppm", clusterTestGraph(t))

	_, s := openOnRawLink(t, fc, "idle")
	time.Sleep(8 * 400 * time.Millisecond) // 8x the faultConfig peer deadline
	select {
	case <-s.closed:
		t.Fatal("an idle session was closed while its driver's link stayed open")
	default:
	}
	if fc.nodes[0].sessionCount() != 1 {
		t.Fatal("an idle session was dropped while its driver's link stayed open")
	}
}

// postStatus posts a JSON body and returns the status code alone — unlike
// postBody it does not require 200, so error-class tests reuse it.
func postStatus(t *testing.T, url, body string) (int, error) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, nil
}

// linkGoroutines counts the goroutines running a link's reader or watcher,
// or an advance a reader started.
func linkGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	n := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "cluster.(*Node).readLink") ||
			strings.Contains(g, "cluster.(*Node).dialLink.func") ||
			strings.Contains(g, "cluster.(*session).serveAdvance") {
			n++
		}
	}
	return n
}

// TestNodeStopClosesLinks: a detection leaves every shard pair's links open
// for the next one; evicting a peer closes its links, and Stop closes the
// rest and joins their goroutines before it returns (http.Server.Close
// leaves hijacked connections alone).
func TestNodeStopClosesLinks(t *testing.T) {
	before := linkGoroutines() // nodes other tests left running
	g := clusterTestGraph(t)
	tc := startCluster(t, 3, 42)
	tc.register(t, "ppm", g)
	if _, _, handled, err := tc.nodes[0].Detect(context.Background(), "ppm", core.WithEngine(core.EngineCongest), core.WithSeed(9)); err != nil || !handled {
		t.Fatalf("handled=%v err=%v", handled, err)
	}
	// 3 shards, 6 ordered pairs, a reader and a watcher each, once the last
	// round's advances have returned.
	eventually(t, 5*time.Second, "12 link goroutines after a detection", func() bool {
		return linkGoroutines()-before == 12
	})

	peer := tc.urls[2]
	tc.nodes[0].evict(peer, "test")
	tc.nodes[0].linkMu.Lock()
	for l := range tc.nodes[0].links {
		if l.peer == peer {
			t.Errorf("link to evicted peer %s still open", peer)
		}
	}
	tc.nodes[0].linkMu.Unlock()

	for _, node := range tc.nodes {
		node.Stop()
	}
	if got := linkGoroutines() - before; got != 0 {
		t.Fatalf("%d link goroutines survive Stop", got)
	}
}
