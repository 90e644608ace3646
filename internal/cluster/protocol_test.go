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
	"testing"
	"time"
)

// openSession creates session id on every shard of tc and returns them in
// rank order.
func openSession(t *testing.T, tc *testCluster, id string, walks int) []*session {
	t.Helper()
	g, ok := tc.regs[0].Graph("ppm")
	if !ok {
		t.Fatal("graph ppm not registered")
	}
	ranks, _, err := tc.nodes[0].roster()
	if err != nil {
		t.Fatal(err)
	}
	sreq := sessionRequest{
		Session: id, Graph: "ppm", Members: ranks,
		Vertices: g.NumVertices(), Edges: g.NumEdges(), PlacementSeed: 1, Walks: walks,
	}
	out := make([]*session, len(ranks))
	for _, node := range tc.nodes {
		s, err := node.createSession(sreq, "")
		if err != nil {
			t.Fatal(err)
		}
		out[s.self] = s
		t.Cleanup(func() { node.dropSession(id) })
	}
	return out
}

// dialRawLink opens a link into the shard at base as if from shard from,
// for writing hand-made frames.
func dialRawLink(t *testing.T, base, from string) net.Conn {
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
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("link upgrade: %s", resp.Status)
	}
	return conn
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
// requests that lose a protocol race (unknown session, out-of-order round)
// are 409s — the classes a retrying driver must treat differently. Control
// requests answer with the status; a failed advance answers its driver
// with an error frame carrying it.
func TestClusterErrorStatusClasses(t *testing.T) {
	g := clusterTestGraph(t)
	tc := startCluster(t, 2, 1)
	tc.register(t, "ppm", g)
	base := tc.urls[0]
	openSession(t, tc, "ec", 1)

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
	// advance sends payload as an advance frame from shard 0 to shard 1 on
	// a fresh session and returns the status of the error frame it draws.
	n := 0
	advance := func(walks int, payload []byte) func() int {
		return func() int {
			n++
			id := "adv" + string(rune('a'+n))
			ss := openSession(t, tc, id, walks)
			d := ss[tc.nodes[0].self]
			if _, err := tc.nodes[0].send(d.peers[1-d.self], id, payload); err != nil {
				t.Fatal(err)
			}
			_, err := d.collect(context.Background(), boxReplies, 1, func(m int) bool { return m != d.self }, 2*time.Second)
			var re *remoteError
			if !errors.As(err, &re) {
				t.Fatalf("advance frame drew %v, want an error frame", err)
			}
			return re.status
		}
	}
	encode := func(r advanceRequest) []byte {
		b, err := r.encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name string
		got  func() int
		want int
	}{
		{"malformed session body", post(base+"/cluster/sessions", "{"), http.StatusBadRequest},
		{"malformed join body", post(base+"/cluster/join", "nonsense"), http.StatusBadRequest},
		{"link without the upgrade", link("", tc.urls[1]), http.StatusBadRequest},
		{"link without its sender", link(linkProtocol, ""), http.StatusBadRequest},
		{"malformed advance frame", advance(1, []byte{advanceMagic, codecVersion, 0xff}), http.StatusBadRequest},
		{"advance with more walks than its session", advance(2, encode(advanceRequest{Round: 1, Support: make([][]entry, 3)})), http.StatusBadRequest},
		{"out-of-order round", advance(1, encode(advanceRequest{Round: 7, Support: [][]entry{nil}})), http.StatusConflict},
		{"heartbeat on unknown session", post(base+"/cluster/sessions/ghost/heartbeat", `{"session":"ghost"}`), http.StatusConflict},
		{"heartbeat on live session", post(base+"/cluster/sessions/ec/heartbeat", `{"session":"ec"}`), http.StatusOK},
	}
	for _, tc := range cases {
		if got := tc.got(); got != tc.want {
			t.Errorf("%s: want %d, got %d", tc.name, tc.want, got)
		}
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
// the link stays up; and a control body over its constant bound answers
// 413.
func TestClusterOversizedBodiesRefused(t *testing.T) {
	g := clusterTestGraph(t)
	tc := startCluster(t, 2, 1)
	tc.register(t, "ppm", g)
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

	huge := `{"session":"` + strings.Repeat("s", maxControlBody) + `"}`
	resp, err := http.Post(tc.urls[0]+"/cluster/sessions", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized session body: status %d, want 413", resp.StatusCode)
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
