package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestClusterErrorStatusClasses pins the 400/409 split on the shard
// protocol surface: requests malformed in themselves are 400s, while
// well-formed requests that lose a protocol race (unknown session,
// out-of-order round) are 409s — the classes a retrying driver must treat
// differently.
func TestClusterErrorStatusClasses(t *testing.T) {
	g := clusterTestGraph(t)
	tc := startCluster(t, 2, 1)
	tc.register(t, "ppm", g)
	base := tc.urls[0]
	node := tc.nodes[0]

	ranks, _, err := node.roster()
	if err != nil {
		t.Fatal(err)
	}
	sreq := sessionRequest{
		Session: "ec", Graph: "ppm", Members: ranks,
		Vertices: g.NumVertices(), Edges: g.NumEdges(), PlacementSeed: 1,
	}
	if err := node.createSession(sreq); err != nil {
		t.Fatal(err)
	}
	defer node.dropSession("ec")

	get := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name string
		got  func() int
		want int
	}{
		{"malformed session body", func() int {
			s, err := postStatus(t, base+"/cluster/sessions", "{")
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, http.StatusBadRequest},
		{"malformed join body", func() int {
			s, err := postStatus(t, base+"/cluster/join", "nonsense")
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, http.StatusBadRequest},
		{"malformed advance body", func() int {
			s, err := postStatus(t, base+"/cluster/sessions/ec/advance", "{")
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, http.StatusBadRequest},
		{"non-numeric round param", func() int {
			return get(base + "/cluster/sessions/ec/shares?round=abc&to=0")
		}, http.StatusBadRequest},
		{"non-numeric to param", func() int {
			return get(base + "/cluster/sessions/ec/shares?round=1&to=zz")
		}, http.StatusBadRequest},
		{"out-of-range to param", func() int {
			return get(base + "/cluster/sessions/ec/shares?round=1&to=5")
		}, http.StatusBadRequest},
		{"advance on unknown session", func() int {
			s, err := postStatus(t, base+"/cluster/sessions/ghost/advance", `{"round":1,"support":[]}`)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, http.StatusConflict},
		{"heartbeat on unknown session", func() int {
			s, err := postStatus(t, base+"/cluster/sessions/ghost/heartbeat", `{"session":"ghost"}`)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, http.StatusConflict},
		{"shares on unknown session", func() int {
			return get(base + "/cluster/sessions/ghost/shares?round=1&to=0")
		}, http.StatusConflict},
		{"out-of-order round", func() int {
			payload, err := advanceRequest{Round: 7, Support: [][]entry{nil}}.encode()
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(base+"/cluster/sessions/ec/advance", advanceContentType, bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}, http.StatusConflict},
		{"heartbeat on live session", func() int {
			s, err := postStatus(t, base+"/cluster/sessions/ec/heartbeat", `{"session":"ec"}`)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, http.StatusOK},
	}
	for _, tc := range cases {
		if got := tc.got(); got != tc.want {
			t.Errorf("%s: want %d, got %d", tc.name, tc.want, got)
		}
	}
}

// TestClusterSharesNegotiation drives one real flood round across a
// 2-shard cluster, then pulls shard 0's frozen payload over HTTP: it must
// arrive in the binary share codec, for the right round, and carry the
// shares shard 0 froze for that peer.
func TestClusterSharesNegotiation(t *testing.T) {
	g := clusterTestGraph(t)
	tc := startCluster(t, 2, 1)
	tc.register(t, "ppm", g)

	ranks, _, err := tc.nodes[0].roster()
	if err != nil {
		t.Fatal(err)
	}
	sreq := sessionRequest{
		Session: "neg", Graph: "ppm", Members: ranks,
		Vertices: g.NumVertices(), Edges: g.NumEdges(), PlacementSeed: 1,
	}
	sessions := make([]*session, 2)
	for i, node := range tc.nodes {
		if err := node.createSession(sreq); err != nil {
			t.Fatal(err)
		}
		defer node.dropSession("neg")
		if sessions[i], err = node.session("neg"); err != nil {
			t.Fatal(err)
		}
	}

	// One concurrent round-1 advance per shard (each pulls the other's
	// shares), with every owned vertex carrying uniform mass so both
	// boundary directions freeze non-empty payloads.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, s := range sessions {
		support := make([]entry, 0, len(s.store.owned))
		for _, v := range s.store.owned {
			support = append(support, entry{V: v, S: 1 / float64(g.NumVertices())})
		}
		wg.Add(1)
		go func(i int, s *session, support []entry) {
			defer wg.Done()
			_, errs[i] = s.advance(context.Background(), advanceRequest{Round: 1, Support: [][]entry{support}})
		}(i, s, support)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d advance: %v", i, err)
		}
	}

	// Pull shard 0's frozen payload toward the other rank.
	other := 1 - sessions[0].self
	url := tc.urls[0] + "/cluster/sessions/neg/shares?round=1&to=" + strconv.Itoa(other)
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", shareContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	binBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary pull: %s: %s", resp.Status, binBody)
	}
	if ct := resp.Header.Get("Content-Type"); ct != shareContentType {
		t.Fatalf("binary Content-Type %q, want %q", ct, shareContentType)
	}
	round, binShares, err := decodeShares(binBody)
	if err != nil {
		t.Fatal(err)
	}
	if round != 1 {
		t.Fatalf("pulled round %d, want 1", round)
	}
	if len(binShares) == 0 || len(binShares[0]) == 0 {
		t.Fatal("negotiation test froze an empty payload — boundary never exercised")
	}
	want, err := sessions[0].shares(context.Background(), 1, other)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(binShares, want) {
		t.Fatal("binary pull returned different share data from what shard 0 froze")
	}
}

// endlessReader yields zero bytes forever: a request body no bound can
// finish reading.
type endlessReader struct{}

func (endlessReader) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestClusterOversizedBodiesRefused pins the body bounds of the shard
// protocol surface: an advance body one byte over its session's bound
// (walk count × owned-vertex entries) and a control body over the constant
// bound both answer 413, and an endless advance body is refused after the
// bound is read rather than streamed to exhaustion.
func TestClusterOversizedBodiesRefused(t *testing.T) {
	g := clusterTestGraph(t)
	tc := startCluster(t, 2, 1)
	tc.register(t, "ppm", g)
	base := tc.urls[0]
	node := tc.nodes[0]

	ranks, _, err := node.roster()
	if err != nil {
		t.Fatal(err)
	}
	sreq := sessionRequest{
		Session: "big", Graph: "ppm", Members: ranks,
		Vertices: g.NumVertices(), Edges: g.NumEdges(), PlacementSeed: 1, Walks: 2,
	}
	if err := node.createSession(sreq); err != nil {
		t.Fatal(err)
	}
	defer node.dropSession("big")
	s, err := node.session("big")
	if err != nil {
		t.Fatal(err)
	}
	bound := s.maxAdvanceBytes()
	if bound <= 0 || bound > 1<<20 {
		t.Fatalf("advance bound %d bytes for %d owned vertices and 2 walks", bound, len(s.store.owned))
	}

	post := func(url, contentType string, body io.Reader) int {
		t.Helper()
		resp, err := http.Post(url, contentType, body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	advance := base + "/cluster/sessions/big/advance"
	if got := post(advance, advanceContentType, bytes.NewReader(make([]byte, bound+1))); got != http.StatusRequestEntityTooLarge {
		t.Errorf("advance body of bound+1 bytes: status %d, want 413", got)
	}
	start := time.Now()
	if got := post(advance, advanceContentType, endlessReader{}); got != http.StatusRequestEntityTooLarge {
		t.Errorf("endless advance body: status %d, want 413", got)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("endless advance body took %v to refuse", took)
	}
	huge := `{"session":"` + strings.Repeat("s", maxControlBody) + `"}`
	if got := post(base+"/cluster/sessions", "application/json", strings.NewReader(huge)); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized session body: status %d, want 413", got)
	}
	// A payload within the bound but claiming more walks than the session
	// allows is malformed, not oversized.
	payload, err := advanceRequest{Round: 1, Support: make([][]entry, 3)}.encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := post(advance, advanceContentType, bytes.NewReader(payload)); got != http.StatusBadRequest {
		t.Errorf("advance with 3 walks on a 2-walk session: status %d, want 400", got)
	}
}
