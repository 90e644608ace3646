package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// ppmSession is the request that opens a session of walks on the graph tc
// registered as "ppm", under placement seed 1.
func ppmSession(t testing.TB, tc *testCluster, walks int) sessionRequest {
	t.Helper()
	g, ok := tc.regs[0].Graph("ppm")
	if !ok {
		t.Fatal("graph ppm not registered")
	}
	ranks, _, err := tc.nodes[0].roster()
	if err != nil {
		t.Fatal(err)
	}
	return sessionRequest{Graph: "ppm", Members: ranks, Vertices: g.NumVertices(), Edges: g.NumEdges(), PlacementSeed: 1, Walks: walks}
}

// openSession creates session id, driven by tc.nodes[0], on every shard of
// tc and returns them in rank order (nil at a rank the test plays).
func openSession(t *testing.T, tc *testCluster, id string, walks int) []*session {
	t.Helper()
	sreq := ppmSession(t, tc, walks)
	out := make([]*session, len(sreq.Members))
	for _, node := range tc.nodes {
		s, err := node.createSession(id, sreq, tc.urls[0])
		if err != nil {
			t.Fatal(err)
		}
		out[s.self] = s
		t.Cleanup(func() { node.dropSession(id, "test done") })
	}
	return out
}

// dialRawLink opens a link into the shard at base as if from shard from,
// for writing hand-made frames.
func dialRawLink(t *testing.T, base, from string) net.Conn {
	t.Helper()
	conn, status := upgradeLink(t, base, from)
	if status != http.StatusSwitchingProtocols {
		t.Fatalf("link upgrade: status %d", status)
	}
	return conn
}

// upgradeLink asks the shard at base for a link from from and returns the
// connection and the status it answered.
func upgradeLink(t *testing.T, base, from string) (net.Conn, int) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	req, err := http.NewRequest(http.MethodGet, base+"/cluster/link", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", linkProtocol)
	req.Header.Set(linkFromHeader, from)
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), req)
	if err != nil {
		t.Fatal(err)
	}
	return conn, resp.StatusCode
}

// stubShard is a cluster member the test plays: it answers the link
// upgrades shards dial to it and hands over every frame they carry.
type stubShard struct {
	url    string
	frames chan stubFrame

	mu    sync.Mutex
	paths []string // the path of every link upgrade dialled to it
}

// stubCluster boots one real shard of a 2-member cluster whose other member
// is a stub the test plays, with graph ppm registered.
func stubCluster(t *testing.T) (*testCluster, *stubShard) {
	t.Helper()
	stub := startStubShard(t)
	tc := bootCluster(t, 1, 1, func(cfg *Config) {
		cfg.Size = 2
		cfg.Join = append(cfg.Join, stub.url)
	}, nil)
	tc.register(t, "ppm", clusterTestGraph(t))
	return tc, stub
}

type stubFrame struct {
	sid     string
	payload []byte
}

func startStubShard(t *testing.T) *stubShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st := &stubShard{url: "http://" + ln.Addr().String(), frames: make(chan stubFrame)}
	done := make(chan struct{})
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		close(done)
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go st.serve(conn, done)
		}
	}()
	return st
}

// serve answers one link upgrade and files the link's frames.
func (st *stubShard) serve(conn net.Conn, done <-chan struct{}) {
	br := bufio.NewReader(conn)
	req, err := http.ReadRequest(br)
	if err != nil {
		return
	}
	st.mu.Lock()
	st.paths = append(st.paths, req.URL.Path)
	st.mu.Unlock()
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+linkProtocol+"\r\n\r\n"); err != nil {
		return
	}
	for {
		sid, size, err := readFrameHead(br)
		if err != nil {
			return
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		select {
		case st.frames <- stubFrame{sid, payload}:
		case <-done:
			return
		}
	}
}

// answer returns the status of the next ack or error frame for session sid
// (200 for an ack), skipping any other frame.
func (st *stubShard) answer(t *testing.T, sid string) int {
	t.Helper()
	timeout := time.After(2 * time.Second)
	for {
		select {
		case f := <-st.frames:
			if f.sid != sid || len(f.payload) == 0 {
				continue
			}
			switch f.payload[0] {
			case advanceReplyMagic:
				return http.StatusOK
			case errorMagic:
				re, err := decodeError(f.payload)
				if err != nil {
					t.Fatal(err)
				}
				return re.status
			}
		case <-timeout:
			t.Fatalf("no answer for session %q within 2s", sid)
		}
	}
}

// closedWithin reports whether the peer closes conn within d (it never
// writes on an inbound link, so any read result but a timeout is a close).
func closedWithin(conn net.Conn, d time.Duration) bool {
	_ = conn.SetReadDeadline(time.Now().Add(d))
	var b [1]byte
	_, err := conn.Read(b[:])
	var ne net.Error
	return err != nil && !(errors.As(err, &ne) && ne.Timeout())
}

// TestClusterErrorStatusClasses pins the 400/409 split on the shard
// protocol: requests malformed in themselves are 400s, while well-formed
// requests that lose a protocol race (unknown or duplicate session,
// out-of-order round) are 409s — the classes a retrying driver must treat
// differently. HTTP requests answer with the status; a failed open or
// advance answers its sender with an error frame carrying it. The test
// plays the shard's only peer, so every answer reaches it. A link claiming
// any other sender is refused, so no frame makes the shard dial outside
// its roster.
func TestClusterErrorStatusClasses(t *testing.T) {
	tc, stub := stubCluster(t)
	base := tc.urls[0]

	post := func(url, body string) func() int {
		return func() int {
			s, err := postStatus(t, url, body)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	link := func(upgrade, from string) func() int {
		return func() int {
			req, err := http.NewRequest(http.MethodGet, base+"/cluster/link", nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Upgrade", upgrade)
			req.Header.Set(linkFromHeader, from)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}
	}
	// frame writes one frame on conn and returns the status of the answer.
	member := dialRawLink(t, base, stub.url)
	frame := func(conn net.Conn, sid string, payload []byte) func() int {
		return func() int {
			if _, err := conn.Write(appendFrame(nil, sid, payload)); err != nil {
				t.Fatal(err)
			}
			return stub.answer(t, sid)
		}
	}
	open := func(graph string, walks int) []byte {
		req := ppmSession(t, tc, walks)
		req.Graph = graph
		return encodeOpen(req)
	}
	// advance opens a fresh session of walks as its driver and returns the
	// status of the error frame an advance frame carrying payload draws.
	n := 0
	advance := func(walks int, payload []byte) func() int {
		return func() int {
			n++
			id := "adv" + string(rune('a'+n))
			if status := frame(member, id, open("ppm", walks))(); status != http.StatusOK {
				t.Fatalf("open %s: status %d", id, status)
			}
			return frame(member, id, payload)()
		}
	}
	encode := func(r advanceRequest) []byte {
		b, err := r.encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// stranger asks for a link as from; were it taken, the open and the
	// orphan advance it carries would draw answers sent to from.
	stranger := func(from string) func() int {
		return func() int {
			conn, status := upgradeLink(t, base, from)
			if status == http.StatusSwitchingProtocols {
				frames := appendFrame(nil, "o-out", open("ppm", 1))
				frames = appendFrame(frames, "nobody-out", encode(advanceRequest{Round: 1, Support: [][]entry{nil}}))
				if _, err := conn.Write(frames); err != nil {
					t.Fatal(err)
				}
			}
			return status
		}
	}
	cases := []struct {
		name string
		got  func() int
		want int
	}{
		{"open", frame(member, "o", open("ppm", 1)), http.StatusOK},
		{"duplicate open", frame(member, "o", open("ppm", 1)), http.StatusConflict},
		{"malformed open", frame(member, "o-bad", []byte{openMagic, codecVersion, '{'}), http.StatusBadRequest},
		{"open naming an unregistered graph", frame(member, "o-ghost", open("ghost", 1)), http.StatusConflict},
		{"advance on an unknown session", frame(member, "nobody", encode(advanceRequest{Round: 1, Support: [][]entry{nil}})), http.StatusConflict},
		{"malformed join body", post(base+"/cluster/join", "nonsense"), http.StatusBadRequest},
		{"link without the upgrade", link("", stub.url), http.StatusBadRequest},
		{"link without its sender", link(linkProtocol, ""), http.StatusBadRequest},
		{"link from a non-member", stranger(stub.url + "/outsider"), http.StatusBadRequest},
		{"link from the shard itself", stranger(base), http.StatusBadRequest},
		{"malformed advance frame", advance(1, []byte{advanceMagic, codecVersion, 0xff}), http.StatusBadRequest},
		{"advance with more walks than its session", advance(2, encode(advanceRequest{Round: 1, Support: make([][]entry, 3)})), http.StatusBadRequest},
		{"out-of-order round", advance(1, encode(advanceRequest{Round: 7, Support: [][]entry{nil}})), http.StatusConflict},
	}
	for _, tc := range cases {
		if got := tc.got(); got != tc.want {
			t.Errorf("%s: want %d, got %d", tc.name, tc.want, got)
		}
	}

	stub.mu.Lock()
	paths := stub.paths
	stub.mu.Unlock()
	if !reflect.DeepEqual(paths, []string{"/cluster/link"}) {
		t.Errorf("the shard dialled links at %q; want its one link to the member", paths)
	}
	node := tc.nodes[0]
	node.sendMu.Lock()
	outbound, toStub := len(node.outbound), node.outbound[stub.url] != nil
	node.sendMu.Unlock()
	if outbound != 1 || !toStub {
		t.Errorf("the shard keeps %d outbound links; want one, to the member", outbound)
	}
}

// TestClusterSharesFrame runs one real round on shard 0 of a 2-shard
// cluster and inspects the share frame it sends: it must reach shard 1's
// mailbox for the right round, carry exactly the shares shard 0 froze for
// that peer, and be counted as one frame of its size on the link.
func TestClusterSharesFrame(t *testing.T) {
	g := clusterTestGraph(t)
	tc := startCluster(t, 2, 1)
	tc.register(t, "ppm", g)
	ss := openSession(t, tc, "neg", 1)
	ref := openSession(t, tc, "neg-ref", 1)
	s0 := ss[tc.nodes[0].self]
	s1 := ss[1-s0.self]

	// Every owned vertex carries uniform mass, so the boundary toward the
	// peer freezes a non-empty payload.
	support := make([]entry, 0, len(s0.store.owned))
	for _, v := range s0.store.owned {
		support = append(support, entry{V: v, S: 1 / float64(g.NumVertices())})
	}
	req := advanceRequest{Round: 1, Support: [][]entry{support}}
	want, err := ref[s0.self].freeze(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want[s1.self]) != 1 || len(want[s1.self][0]) == 0 {
		t.Fatal("the round froze an empty payload — boundary never exercised")
	}

	done := make(chan error, 1)
	go func() {
		_, err := s0.advance(context.Background(), req)
		done <- err
	}()
	var got *advanceResponse
	select {
	case got = <-s1.box[boxShares][s0.self]:
		s1.box[boxShares][s0.self] <- got // back for shard 1's round
	case <-time.After(5 * time.Second):
		t.Fatal("shard 0's share frame never reached shard 1")
	}
	if got.Round != 1 || !reflect.DeepEqual(got.Support, want[s1.self]) {
		t.Fatalf("share frame carries round %d and %v, want round 1 and what shard 0 froze", got.Round, got.Support)
	}
	payload, err := encodeShares(1, want[s1.self])
	if err != nil {
		t.Fatal(err)
	}
	m := s1.node.Metrics()
	if size := int64(len(appendFrame(nil, "neg", payload))); m.TotalLinkBytes() != size {
		t.Fatalf("frame counted as %d bytes, want %d", m.TotalLinkBytes(), size)
	}
	if w := m.TotalLinkWords(); w != int64(len(want[s1.self][0])) {
		t.Fatalf("shard 1 counted %d link words, want %d", w, len(want[s1.self][0]))
	}

	// Shard 1's own round releases shard 0's gather.
	other := make([]entry, 0, len(s1.store.owned))
	for _, v := range s1.store.owned {
		other = append(other, entry{V: v, S: 1 / float64(g.NumVertices())})
	}
	if _, err := s1.advance(context.Background(), advanceRequest{Round: 1, Support: [][]entry{other}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestClusterOversizedBodiesRefused pins the bounds of the shard protocol:
// a frame one byte over its session's bound (walk count × the vertices the
// sender may name) and a frame claiming an endless length both close the
// link before any payload is read, failing the waits on its sender at
// once; a frame for an unknown session is discarded within its cap and
// the link stays up; and an open frame or a join body over its constant
// bound answers 413.
func TestClusterOversizedBodiesRefused(t *testing.T) {
	tc, stub := stubCluster(t)
	ss := openSession(t, tc, "big", 2)
	s0 := ss[tc.nodes[0].self]
	from := 1 - s0.self
	bound := s0.maxFrameBytes(from)
	if bound <= 0 || bound > 1<<20 {
		t.Fatalf("frame bound %d bytes for %d owned vertices and 2 walks", bound, len(s0.store.owned))
	}

	head := func(sid string, size uint32) []byte {
		return binary.BigEndian.AppendUint32(append([]byte{byte(len(sid))}, sid...), size)
	}
	conn := dialRawLink(t, tc.urls[0], s0.peers[from])
	// An orphan frame within its cap is read past, not a reason to close.
	if _, err := conn.Write(append(head("ghost", 64), make([]byte, 64)...)); err != nil {
		t.Fatal(err)
	}
	if closedWithin(conn, 100*time.Millisecond) {
		t.Fatal("a frame for an unknown session closed the link")
	}
	if _, err := conn.Write(head("big", uint32(bound)+1)); err != nil {
		t.Fatal(err)
	}
	if !closedWithin(conn, 5*time.Second) {
		t.Fatal("a frame one byte over its bound did not close the link")
	}
	select {
	case <-s0.gone[from]:
	case <-time.After(5 * time.Second):
		t.Fatal("the closed link did not fail the waits on its sender")
	}

	for _, c := range []struct {
		sid  string
		size uint32
	}{{"big", 1<<32 - 1}, {"ghost", maxOrphanFrame + 1}} {
		conn := dialRawLink(t, tc.urls[0], s0.peers[from])
		start := time.Now()
		if _, err := conn.Write(head(c.sid, c.size)); err != nil {
			t.Fatal(err)
		}
		if !closedWithin(conn, 5*time.Second) {
			t.Fatalf("a %d-byte frame for session %q did not close the link", c.size, c.sid)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("a %d-byte frame took %v to refuse", c.size, took)
		}
	}

	// An open over maxControlBody draws a 413 as soon as its magic arrives,
	// before its payload is sent: the length is checked first, and the
	// payload is discarded unread. The link stays up.
	conn = dialRawLink(t, tc.urls[0], stub.url)
	if _, err := conn.Write(append(head("huge", maxControlBody+1), openMagic, codecVersion)); err != nil {
		t.Fatal(err)
	}
	if status := stub.answer(t, "huge"); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized open frame: status %d, want 413", status)
	}
	if _, err := conn.Write(make([]byte, maxControlBody-1)); err != nil {
		t.Fatal(err)
	}
	if closedWithin(conn, 100*time.Millisecond) {
		t.Error("an oversized open closed the link")
	}

	huge := `{"advertise":"` + strings.Repeat("s", maxControlBody) + `"}`
	resp, err := http.Post(tc.urls[0]+"/cluster/join", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized join body: status %d, want 413", resp.StatusCode)
	}
}

// TestClusterFrameForeignVertices: a share or reply frame may name only
// vertices homed on its sender. One naming a vertex out of range, or homed
// elsewhere, fails the waits on its sender instead of reaching the gather
// or the driver's merge.
func TestClusterFrameForeignVertices(t *testing.T) {
	g := clusterTestGraph(t)
	tc := startCluster(t, 2, 1)
	tc.register(t, "ppm", g)
	for _, c := range []struct {
		id, name string
		magic    byte
		trailer  int // a reply carries three timings
		v        func(s *session) int32
	}{
		{"foreign-shares", "shares naming a vertex out of range", shareMagic, 0, func(*session) int32 { return int32(g.NumVertices()) }},
		{"foreign-reply", "reply naming the receiver's own vertex", advanceReplyMagic, 3, func(s *session) int32 { return s.store.owned[0] }},
	} {
		ss := openSession(t, tc, c.id, 1)
		s := ss[tc.nodes[0].self]
		from := 1 - s.self
		payload, err := encodeRound(c.magic, 1, [][]entry{{{V: c.v(s), S: 0.5}}}, make([]int64, c.trailer)...)
		if err != nil {
			t.Fatal(err)
		}
		conn := dialRawLink(t, tc.urls[0], s.peers[from])
		if _, err := conn.Write(appendFrame(nil, c.id, payload)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-s.gone[from]:
			s.mu.Lock()
			err := s.failed[from]
			s.mu.Unlock()
			if !strings.Contains(err.Error(), "not homed") {
				t.Errorf("%s: failed with %v, want a not-homed error", c.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: the frame did not fail the waits on its sender", c.name)
		}
	}
}

// TestClusterCloseFrame: only a session's driver may close it. A close
// frame from another member fails the waits on its sender and leaves the
// session open; the driver's close drops it.
func TestClusterCloseFrame(t *testing.T) {
	tc := startCluster(t, 3, 1)
	tc.register(t, "ppm", clusterTestGraph(t))
	node := tc.nodes[1]
	s := openSession(t, tc, "cl", 1)[node.self]
	other := 3 - s.self - s.driver
	closeFrom := func(rank int) {
		t.Helper()
		if _, err := dialRawLink(t, tc.urls[1], s.peers[rank]).Write(appendFrame(nil, "cl", closePayload)); err != nil {
			t.Fatal(err)
		}
	}

	closeFrom(other)
	select {
	case <-s.gone[other]:
	case <-time.After(5 * time.Second):
		t.Fatal("a close from a non-driver did not fail the waits on its sender")
	}
	if node.sessionCount() != 1 {
		t.Fatal("a close from a non-driver dropped the session")
	}

	closeFrom(s.driver)
	select {
	case <-s.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the driver's close did not close the session")
	}
	if node.sessionCount() != 0 {
		t.Fatal("the driver's close left the session installed")
	}
}
