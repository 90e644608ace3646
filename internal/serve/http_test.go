package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cdrw/internal/graph"
	"cdrw/internal/metrics"
)

// newTestServer mounts a fresh registry + handler on an httptest server.
func newTestServer(t *testing.T) (*httptest.Server, *metrics.ServeMetrics) {
	t.Helper()
	m := metrics.NewServeMetrics()
	srv := httptest.NewServer(NewHandler(NewRegistry(2, m), m))
	t.Cleanup(srv.Close)
	return srv, m
}

// do issues a request and decodes the JSON response into out (skipped when
// out is nil), failing on an unexpected status.
func do(t *testing.T, method, url string, body io.Reader, wantStatus int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
}

// TestHTTPLifecycle drives the daemon surface end to end: generate, list,
// detect (cold then cached), community, stream, metrics, delete.
func TestHTTPLifecycle(t *testing.T) {
	srv, _ := newTestServer(t)

	// Generate a PPM graph server-side.
	var info graphInfoJSON
	do(t, "POST", srv.URL+"/graphs/ppm/generate",
		strings.NewReader(`{"model":"ppm","n":256,"r":2,"p":0.08,"q":0.002,"seed":1}`),
		http.StatusCreated, &info)
	if info.Name != "ppm" || info.Vertices != 256 || info.Edges == 0 {
		t.Fatalf("generate response %+v", info)
	}

	// List shows it.
	var list struct {
		Graphs []graphInfoJSON `json:"graphs"`
	}
	do(t, "GET", srv.URL+"/graphs", nil, http.StatusOK, &list)
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "ppm" {
		t.Fatalf("list %+v", list)
	}

	// Detect: cold run, then a cache hit with identical detections.
	var det1, det2 detectResponse
	body := `{"engine":"reference","delta":0.12,"seed":5}`
	do(t, "POST", srv.URL+"/graphs/ppm/detect", strings.NewReader(body), http.StatusOK, &det1)
	if det1.Cached || len(det1.Detections) == 0 || det1.Fingerprint == "" {
		t.Fatalf("cold detect %+v", det1)
	}
	total := 0
	for _, d := range det1.Detections {
		total += len(d.Assigned)
		if d.Stats.FinalSetSize == 0 {
			t.Fatalf("detection missing stats: %+v", d)
		}
	}
	if total != 256 {
		t.Fatalf("assigned sets cover %d of 256 vertices", total)
	}
	do(t, "POST", srv.URL+"/graphs/ppm/detect", strings.NewReader(body), http.StatusOK, &det2)
	if !det2.Cached {
		t.Fatal("identical detect did not report cached")
	}
	if fmt.Sprint(det1.Detections) != fmt.Sprint(det2.Detections) {
		t.Fatal("cached detections differ from the computed ones")
	}

	// Single-seed community.
	var comm communityResponse
	do(t, "POST", srv.URL+"/graphs/ppm/community",
		strings.NewReader(`{"seed":3,"options":{"delta":0.12}}`), http.StatusOK, &comm)
	if len(comm.Community) == 0 || comm.Stats.Seed != 3 {
		t.Fatalf("community response %+v", comm)
	}

	// Stream: NDJSON, one parseable detection per line, covering the graph.
	// Same fingerprint as the detect above, so this replays the cached run.
	resp, err := http.Post(srv.URL+"/graphs/ppm/stream", "application/json",
		strings.NewReader(`{"delta":0.12,"seed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	lines, streamed := 0, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var d detectionJSON
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("stream line %d: %v (%s)", lines, err, sc.Text())
		}
		lines++
		streamed += len(d.Assigned)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != len(det1.Detections) || streamed != 256 {
		t.Fatalf("stream delivered %d detections covering %d vertices, want %d covering 256",
			lines, streamed, len(det1.Detections))
	}

	// Metrics exposition reflects the traffic: one hit from the repeated
	// detect, one from the stream replaying the cached run.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(mbody, []byte("cdrw_requests_total")) ||
		!bytes.Contains(mbody, []byte("cdrw_cache_hits_total 2")) {
		t.Fatalf("metrics exposition:\n%s", mbody)
	}

	// Healthz.
	var health map[string]string
	do(t, "GET", srv.URL+"/healthz", nil, http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz %+v", health)
	}

	// Delete, then the graph is gone.
	do(t, "DELETE", srv.URL+"/graphs/ppm", nil, http.StatusOK, nil)
	do(t, "POST", srv.URL+"/graphs/ppm/detect", nil, http.StatusNotFound, nil)
}

// TestHTTPUploadAndValidation: edge-list upload round-trips through detect;
// malformed bodies and unknown names fail with JSON errors.
func TestHTTPUploadAndValidation(t *testing.T) {
	srv, _ := newTestServer(t)

	// Upload a 6-vertex two-triangle graph.
	var buf bytes.Buffer
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	var info graphInfoJSON
	do(t, "PUT", srv.URL+"/graphs/tri", bytes.NewReader(buf.Bytes()), http.StatusCreated, &info)
	if info.Vertices != 6 || info.Edges != 6 {
		t.Fatalf("upload response %+v", info)
	}
	var det detectResponse
	do(t, "POST", srv.URL+"/graphs/tri/detect", nil, http.StatusOK, &det)
	if len(det.Detections) == 0 {
		t.Fatal("upload round-trip produced no detections")
	}

	var e errorJSON
	do(t, "PUT", srv.URL+"/graphs/bad", strings.NewReader("not an edge list"),
		http.StatusBadRequest, &e)
	if e.Error == "" {
		t.Fatal("bad upload produced no error body")
	}
	// Vertex 2³²+5 must not pass as vertex 5 of a 10-vertex graph.
	do(t, "PUT", srv.URL+"/graphs/wrap", strings.NewReader("10 1\n4294967301 0\n"),
		http.StatusBadRequest, &e)
	do(t, "POST", srv.URL+"/graphs/tri/detect", strings.NewReader(`{"engine":"warp"}`),
		http.StatusBadRequest, &e)
	do(t, "POST", srv.URL+"/graphs/tri/detect", strings.NewReader(`{"unknown_field":1}`),
		http.StatusBadRequest, &e)
	// A removed option is refused like any unknown field, not ignored.
	do(t, "POST", srv.URL+"/graphs/tri/detect", strings.NewReader(`{"engine":"congest","congest_workers":4}`),
		http.StatusBadRequest, &e)
	do(t, "POST", srv.URL+"/graphs/none/detect", nil, http.StatusNotFound, &e)
	do(t, "DELETE", srv.URL+"/graphs/none", nil, http.StatusNotFound, &e)
	do(t, "POST", srv.URL+"/graphs/g/generate", strings.NewReader(`{"model":"cube","n":8}`),
		http.StatusBadRequest, &e)
}

// TestHTTPDetectHugeCongestBatch: a congest_batch far above the vertex count
// answers what a batch of n answers, since no super-step draws more seeds
// than the pool holds, instead of sizing a buffer from the option and
// killing the process (2⁴⁰) or overflowing the pool-size test (2⁶²).
func TestHTTPDetectHugeCongestBatch(t *testing.T) {
	srv, _ := newTestServer(t)
	do(t, "POST", srv.URL+"/graphs/g/generate",
		strings.NewReader(`{"model":"gnp","n":64,"p":0.1,"seed":1}`), http.StatusCreated, nil)
	var full detectResponse
	do(t, "POST", srv.URL+"/graphs/g/detect",
		strings.NewReader(`{"engine":"congest","seed":3,"congest_batch":64}`), http.StatusOK, &full)
	for _, batch := range []string{"1099511627776", "4611686018427387904"} {
		var huge detectResponse
		do(t, "POST", srv.URL+"/graphs/g/detect",
			strings.NewReader(`{"engine":"congest","seed":3,"congest_batch":`+batch+`}`), http.StatusOK, &huge)
		if len(huge.Detections) == 0 || fmt.Sprint(huge.Detections) != fmt.Sprint(full.Detections) {
			t.Fatalf("congest_batch %s answered %v, congest_batch n answered %v", batch, huge.Detections, full.Detections)
		}
	}
}

// TestHTTPPatchEdges drives PATCH /graphs/{name}/edges: NDJSON deltas swap
// generations atomically, bad lines reject the whole batch, and the
// mutation counters land on /metrics.
func TestHTTPPatchEdges(t *testing.T) {
	srv, _ := newTestServer(t)

	do(t, "POST", srv.URL+"/graphs/g/generate",
		strings.NewReader(`{"model":"gnp","n":64,"p":0,"seed":1}`),
		http.StatusCreated, nil)

	// A two-line batch: op defaults to add.
	var pr deltaResponse
	do(t, "PATCH", srv.URL+"/graphs/g/edges",
		strings.NewReader("{\"op\":\"add\",\"u\":0,\"v\":3}\n{\"u\":1,\"v\":2}\n"),
		http.StatusOK, &pr)
	if pr.Generation != 1 || pr.Added != 2 || pr.Removed != 0 {
		t.Fatalf("patch response %+v, want generation 1 with 2 adds", pr)
	}

	do(t, "PATCH", srv.URL+"/graphs/g/edges",
		strings.NewReader(`{"op":"del","u":0,"v":3}`),
		http.StatusOK, &pr)
	if pr.Generation != 2 || pr.Removed != 1 {
		t.Fatalf("patch response %+v, want generation 2 with 1 del", pr)
	}

	// A bad line rejects the whole batch: the valid first line must not
	// have been applied.
	do(t, "PATCH", srv.URL+"/graphs/g/edges",
		strings.NewReader("{\"op\":\"add\",\"u\":0,\"v\":3}\n{\"op\":\"bogus\",\"u\":4,\"v\":5}\n"),
		http.StatusBadRequest, nil)
	do(t, "PATCH", srv.URL+"/graphs/g/edges",
		strings.NewReader(`{"op":"del","u":1,"v":2}`), // still present: batch above did not apply
		http.StatusOK, &pr)
	if pr.Generation != 3 {
		t.Fatalf("rejected batch bumped the generation: %+v", pr)
	}

	// Deleting an absent edge is a 400; an unknown graph is a 404.
	do(t, "PATCH", srv.URL+"/graphs/g/edges",
		strings.NewReader(`{"op":"del","u":1,"v":2}`), http.StatusBadRequest, nil)
	do(t, "PATCH", srv.URL+"/graphs/nope/edges",
		strings.NewReader(`{"op":"add","u":0,"v":1}`), http.StatusNotFound, nil)

	// The mutation counters are on /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(text, []byte("cdrw_deltas_applied_total 3")) {
		t.Fatalf("metrics missing delta counters:\n%s", text)
	}
}
