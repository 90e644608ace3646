package cluster

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cdrw/internal/core"
	"cdrw/internal/metrics"
	"cdrw/internal/serve"
)

// faultConfig is the failure-detection tuning the fault tests run under:
// tight deadlines so a whole kill-and-recover cycle fits in a few hundred
// milliseconds.
func faultConfig(cfg *Config) {
	cfg.PeerTimeout = 400 * time.Millisecond
	cfg.HeartbeatInterval = 50 * time.Millisecond
}

// faultCluster is a testCluster whose shards can be killed individually and
// whose nodes run their background loops (gossip, liveness, reaper).
type faultCluster struct {
	*testCluster
	srvs []*http.Server
}

// startFaultCluster boots k shards like startCluster, with the fault-test
// failure knobs, started background loops, and an optional per-rank handler
// wrapper for injecting stalls.
func startFaultCluster(t testing.TB, k int, placementSeed uint64, wrap func(rank int, urls []string, h http.Handler) http.Handler) *faultCluster {
	t.Helper()
	lns := make([]net.Listener, k)
	urls := make([]string, k)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	fc := &faultCluster{testCluster: &testCluster{urls: urls}}
	for i := 0; i < k; i++ {
		m := metrics.NewServeMetrics()
		reg := serve.NewRegistry(1, m)
		cfg := Config{Size: k, Advertise: urls[i], Join: urls, PlacementSeed: placementSeed}
		faultConfig(&cfg)
		node, err := New(reg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !node.Ready() {
			t.Fatalf("shard %d: full join list should settle at construction", i)
		}
		node.Start()
		t.Cleanup(node.Stop)
		var handler http.Handler = serve.NewClusterHandler(reg, m, node)
		if wrap != nil {
			handler = wrap(i, urls, handler)
		}
		srv := &http.Server{Handler: handler}
		go func(ln net.Listener, srv *http.Server) { _ = srv.Serve(ln) }(lns[i], srv)
		t.Cleanup(func() { _ = srv.Close() })
		fc.nodes = append(fc.nodes, node)
		fc.regs = append(fc.regs, reg)
		fc.srvs = append(fc.srvs, srv)
	}
	return fc
}

// kill simulates one shard's death: its HTTP server drops every connection
// and its background loops stop, as when the process dies.
func (fc *faultCluster) kill(rank int) {
	_ = fc.srvs[rank].Close()
	fc.nodes[rank].Stop()
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
// receiving node hijacks the connection as usual, but its reader's first
// read signals hit and blocks until release (or until the connection
// closes), so the first frame on the link — a round's advance — stays
// unread.
type linkGate struct {
	inner   http.Handler
	from    string
	hit     chan struct{}
	release chan struct{}
	once    sync.Once
}

func newLinkGate() *linkGate {
	return &linkGate{hit: make(chan struct{}), release: make(chan struct{})}
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
	closed    chan struct{}
	closeOnce sync.Once
}

func (c *gatedConn) Read(p []byte) (int, error) {
	c.g.once.Do(func() { close(c.g.hit) })
	select {
	case <-c.g.release:
	case <-c.closed:
	}
	return c.Conn.Read(p)
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
// no session state may survive on them.
func TestClusterKillShardMidDetection(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := clusterTestGraph(t)
	stall := newLinkGate()
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
		t.Fatal("detection never reached shard 2's link")
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

	// No leaked session state or goroutines: the driver's deferred cleanup
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

// TestSessionReaper pins the orphan cleanup: a session whose driver stops
// heartbeating is dropped after the TTL, and an advance whose gather is
// parked on it unwinds with a cluster-class error rather than wedging. A
// closed session unparks its gather at once.
func TestSessionReaper(t *testing.T) {
	g := clusterTestGraph(t)
	fc := startFaultCluster(t, 2, 1, nil)
	fc.register(t, "ppm", g)

	node := fc.nodes[0]
	ranks, _, err := node.roster()
	if err != nil {
		t.Fatal(err)
	}
	park := func(id string) (*session, chan error) {
		t.Helper()
		sreq := sessionRequest{
			Session: id, Graph: "ppm", Members: ranks,
			Vertices: g.NumVertices(), Edges: g.NumEdges(), PlacementSeed: 1,
		}
		s, err := node.createSession(sreq, "")
		if err != nil {
			t.Fatal(err)
		}
		parked := make(chan error, 1)
		go func() {
			// The peer holds no such session, so no share frame comes back.
			_, err := s.advance(context.Background(), advanceRequest{Round: 1, Support: [][]entry{nil}})
			parked <- err
		}()
		return s, parked
	}

	_, dropped := park("dropped")
	time.Sleep(20 * time.Millisecond)
	node.dropSession("dropped")
	select {
	case err := <-dropped:
		if !errors.Is(err, serve.ErrCluster) || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("gather parked on a dropped session: want a closed-session cluster error, got %v", err)
		}
	case <-time.After(200 * time.Millisecond):
		t.Fatal("gather still parked 200ms after its session was dropped")
	}

	// No heartbeats arrive: the reaper must drop the session once the TTL
	// (4x the peer deadline) passes, and the parked gather must unwind.
	_, parked := park("orphan")
	eventually(t, 10*time.Second, "orphaned session reaped", func() bool {
		return node.sessionCount() == 0
	})
	select {
	case err := <-parked:
		if !errors.Is(err, serve.ErrCluster) {
			t.Fatalf("parked gather: want cluster error, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked gather still parked after the reap")
	}
}

// TestClusterHeartbeatKeepsSessionAlive is the reaper's inverse: a live
// driver's heartbeats hold a session open well past the TTL.
func TestClusterHeartbeatKeepsSessionAlive(t *testing.T) {
	g := clusterTestGraph(t)
	fc := startFaultCluster(t, 2, 1, nil)
	fc.register(t, "ppm", g)

	node := fc.nodes[0]
	ranks, _, err := node.roster()
	if err != nil {
		t.Fatal(err)
	}
	sreq := sessionRequest{
		Session: "beaten", Graph: "ppm", Members: ranks,
		Vertices: g.NumVertices(), Edges: g.NumEdges(), PlacementSeed: 1,
	}
	if _, err := node.createSession(sreq, ""); err != nil {
		t.Fatal(err)
	}
	defer node.dropSession("beaten")
	ttl := 4 * 400 * time.Millisecond // 4x the faultConfig peer deadline
	deadline := time.Now().Add(ttl + ttl/2)
	for time.Now().Before(deadline) {
		status, err := postStatus(t, fc.urls[0]+"/cluster/sessions/beaten/heartbeat", `{"session":"beaten"}`)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK {
			t.Fatalf("heartbeat: want 200, got %d", status)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if node.sessionCount() != 1 {
		t.Fatal("heartbeated session was reaped")
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
