package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cdrw/internal/core"
	"cdrw/internal/graph"
	"cdrw/internal/metrics"
)

// detectResponse is the full-run answer as the handler once built it per
// request; the tests decode into it and encode it as the reference body.
type detectResponse struct {
	Graph       string          `json:"graph"`
	Fingerprint string          `json:"fingerprint"`
	Cached      bool            `json:"cached"`
	Detections  []detectionJSON `json:"detections"`
}

// encodeDetectResponse is the reference /detect body: a json.Encoder
// encoding of detectResponse over res.
func encodeDetectResponse(t *testing.T, name, fp string, cached bool, res *core.Result) []byte {
	t.Helper()
	out := detectResponse{Graph: name, Fingerprint: fp, Cached: cached,
		Detections: make([]detectionJSON, len(res.Detections))}
	for i, det := range res.Detections {
		out.Detections[i] = toDetectionJSON(det)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wantDetectBody is the reference body of a fresh detection of g under
// opts, computed off the registry.
func wantDetectBody(t *testing.T, name string, g *graph.Graph, cached bool, opts ...core.Option) []byte {
	t.Helper()
	d, err := core.NewDetector(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return encodeDetectResponse(t, name, d.Settings().Fingerprint(), cached, res)
}

// postDetect sends a /detect request and returns its body, failing unless
// the status is 200 and the body arrived under a Content-Length equal to
// its size.
func postDetect(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Error(err) // Fatal is not legal off the test goroutine
		return nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST %s: status %d (body %s)", url, resp.StatusCode, raw)
	}
	if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("POST %s: Content-Length %d, transfer encoding %v, body %d bytes",
			url, resp.ContentLength, resp.TransferEncoding, len(raw))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("POST %s: content type %q", url, ct)
	}
	return raw
}

// sameBody fails when got differs from want.
func sameBody(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: body differs from the reference encoding\n got %.200q\nwant %.200q", what, got, want)
	}
}

// TestDetectBodyByteIdentity: every /detect answer — miss, hit, a line a
// stream filled, concurrent first hits, and misses and hits after a PATCH
// and after a replacing PUT — is byte for byte the json.Encoder encoding of
// detectResponse over a fresh detection of the graph it answers for.
func TestDetectBodyByteIdentity(t *testing.T) {
	ppm := testPPM(t, 256, 2)
	opts := []core.Option{core.WithDelta(ppm.Config.ExpectedConductance()), core.WithSeed(5)}
	m := metrics.NewServeMetrics()
	reg := NewRegistry(2, m)
	srv := httptest.NewServer(NewHandler(reg, m))
	t.Cleanup(srv.Close)
	const req = `{"seed":5}`
	base := opts[:1] // the registered options; req adds the seed

	// The graph name needs escaping in JSON, HTML characters included, and
	// percent-encoding in the URL.
	name := "g<&>"
	url := srv.URL + "/graphs/g%3C&%3E/detect"
	if err := reg.Register(name, ppm.Graph, base...); err != nil {
		t.Fatal(err)
	}
	miss := postDetect(t, url, req)
	sameBody(t, "miss", miss, wantDetectBody(t, name, ppm.Graph, false, opts...))
	if !bytes.HasPrefix(miss, []byte(`{"graph":"g\u003c\u0026\u003e","fingerprint":`)) {
		t.Fatalf("graph name not escaped as json.Encoder escapes it: %.80s", miss)
	}
	hit := postDetect(t, url, req)
	sameBody(t, "hit", hit, wantDetectBody(t, name, ppm.Graph, true, opts...))

	// A PATCH evicts the line; the next answer is a miss on the new
	// generation, the one after it a hit.
	v := 1
	for ppm.Graph.HasEdge(0, v) {
		v++
	}
	do(t, "PATCH", srv.URL+"/graphs/g%3C&%3E/edges",
		strings.NewReader(fmt.Sprintf(`{"op":"add","u":0,"v":%d}`, v)), http.StatusOK, nil)
	patched, _ := reg.Graph(name)
	sameBody(t, "miss after PATCH", postDetect(t, url, req), wantDetectBody(t, name, patched, false, opts...))
	sameBody(t, "hit after PATCH", postDetect(t, url, req), wantDetectBody(t, name, patched, true, opts...))

	// A replacing PUT drops the line with the old graph.
	other := testPPM(t, 192, 3)
	var edges bytes.Buffer
	if err := graph.WriteEdgeList(&edges, other.Graph); err != nil {
		t.Fatal(err)
	}
	do(t, "PUT", srv.URL+"/graphs/g%3C&%3E", &edges, http.StatusCreated, nil)
	replaced, _ := reg.Graph(name)
	sameBody(t, "miss after PUT", postDetect(t, url, req), wantDetectBody(t, name, replaced, false, core.WithSeed(5)))
	sameBody(t, "hit after PUT", postDetect(t, url, req), wantDetectBody(t, name, replaced, true, core.WithSeed(5)))

	// A stream fills the line; /detect answers from it.
	if err := reg.Register("s", ppm.Graph, base...); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/graphs/s/stream", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sameBody(t, "hit on a streamed line", postDetect(t, srv.URL+"/graphs/s/detect", req),
		wantDetectBody(t, "s", ppm.Graph, true, opts...))

	// Concurrent first hits on a line no answer has encoded yet: the
	// registry fills it, then every request races to encode it. The
	// handler is called directly, one goroutine per request, because a
	// client would reuse one keep-alive connection and serialise them (run
	// under -race).
	if err := reg.Register("c", ppm.Graph, base...); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := reg.Detect(context.Background(), "c", core.WithSeed(5)); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(reg, m)
	recs := make([]*httptest.ResponseRecorder, 6)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			h.ServeHTTP(recs[i], httptest.NewRequest(http.MethodPost, "/graphs/c/detect", strings.NewReader(req)))
		}()
	}
	close(start)
	wg.Wait()
	want := wantDetectBody(t, "c", ppm.Graph, true, opts...)
	for i, rec := range recs {
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("concurrent first hit %d: status %d, Content-Length %q for %d bytes",
				i, rec.Code, rec.Header().Get("Content-Length"), rec.Body.Len())
		}
		sameBody(t, fmt.Sprintf("concurrent first hit %d", i), rec.Body.Bytes(), want)
	}
}

// TestDetectBodyCollapsedFollower: a request collapsed onto an in-flight
// run answers the leader's bytes, "cached":false included.
func TestDetectBodyCollapsedFollower(t *testing.T) {
	ppm := testPPM(t, 256, 2)
	delta := core.WithDelta(ppm.Config.ExpectedConductance())
	m := metrics.NewServeMetrics()
	reg := NewRegistry(2, m)
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	obs := func(core.Detection) {
		once.Do(func() { close(started) })
		<-release
	}
	if err := reg.Register("g", ppm.Graph, delta,
		core.WithDetectionObserver(core.SynchronizedDetectionObserver(obs))); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(reg, m))
	t.Cleanup(srv.Close)
	url := srv.URL + "/graphs/g/detect"

	bodies := make([][]byte, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		bodies[0] = postDetect(t, url, "")
	}()
	<-started
	go func() {
		defer wg.Done()
		bodies[1] = postDetect(t, url, "")
	}()
	for deadline := time.Now().Add(10 * time.Second); m.Snapshot().Collapsed == 0; {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the second request never collapsed onto the first")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	want := wantDetectBody(t, "g", ppm.Graph, false, delta)
	sameBody(t, "leader", bodies[0], want)
	sameBody(t, "collapsed follower", bodies[1], want)
}

// fakeCluster is a ClusterBackend that answers every full run from a
// fresh local detection and declines single-seed requests.
type fakeCluster struct{ reg *Registry }

func (fakeCluster) Ready() bool           { return true }
func (fakeCluster) Status() ClusterStatus { return ClusterStatus{Settled: true} }
func (fakeCluster) Handler() http.Handler { return http.NotFoundHandler() }
func (fakeCluster) WriteMetrics(io.Writer) error {
	return nil
}

func (c fakeCluster) Detect(ctx context.Context, name string, opts ...core.Option) (*core.Result, core.Settings, bool, error) {
	g, merged, settings, err := c.reg.Resolve(name, opts...)
	if err != nil {
		return nil, settings, true, err
	}
	d, err := core.NewDetector(g, merged...)
	if err != nil {
		return nil, settings, true, err
	}
	res, err := d.Detect(ctx)
	return res, settings, true, err
}

func (fakeCluster) DetectCommunity(context.Context, string, int, ...core.Option) ([]int, core.CommunityStats, core.Settings, bool, error) {
	return nil, core.CommunityStats{}, core.Settings{}, false, nil
}

// TestDetectBodyClusterBackend: a cluster-served run goes through the same
// writer; it is never cached, so a repeat answers "cached":false again.
func TestDetectBodyClusterBackend(t *testing.T) {
	ppm := testPPM(t, 256, 2)
	delta := core.WithDelta(ppm.Config.ExpectedConductance())
	reg := NewRegistry(2, nil)
	if err := reg.Register("g", ppm.Graph, delta); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewClusterHandler(reg, nil, fakeCluster{reg}))
	t.Cleanup(srv.Close)
	want := wantDetectBody(t, "g", ppm.Graph, false, delta, core.WithSeed(3))
	for i := range 2 {
		sameBody(t, fmt.Sprintf("cluster answer %d", i),
			postDetect(t, srv.URL+"/graphs/g/detect", `{"seed":3}`), want)
	}
}
