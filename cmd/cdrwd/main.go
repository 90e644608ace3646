// Command cdrwd is the CDRW serving daemon: an HTTP/JSON front end over the
// concurrent serving subsystem (internal/serve). It holds named graphs in a
// registry, serves Detect / DetectCommunity / streamed detections from
// bounded pools of warmed detectors — with per-option-fingerprint result
// caching and singleflight collapsing — and exposes Prometheus-style
// counters on /metrics.
//
// Endpoints (see internal/serve.NewHandler for the full table):
//
//	GET    /healthz
//	GET    /readyz
//	GET    /metrics
//	GET    /debug/traces              recent request traces (?id= for one)
//	GET    /graphs
//	PUT    /graphs/{name}             (edge-list body)
//	DELETE /graphs/{name}
//	PATCH  /graphs/{name}/edges       NDJSON edge delta, atomic generation swap
//	POST   /graphs/{name}/generate    {"model":"ppm","n":2048,"r":2,"p":0.02,"q":0.0006}
//	POST   /graphs/{name}/detect      {"engine":"reference","delta":0.1,"seed":1}
//	POST   /graphs/{name}/community   {"seed":17,"options":{...}}
//	POST   /graphs/{name}/stream      NDJSON detections
//
// Example session:
//
//	cdrwd -addr :8080 &
//	curl -X POST localhost:8080/graphs/demo/generate -d '{"n":2048,"r":4,"p":0.04,"q":0.001}'
//	curl -X POST localhost:8080/graphs/demo/detect   -d '{"delta":0.1}'
//	echo '{"op":"add","u":3,"v":17}' |
//	  curl -X PATCH --data-binary @- localhost:8080/graphs/demo/edges
//
// Cluster mode (-cluster-size k) executes the k-machine model over real
// sockets: k daemons discover each other coordinator-free via -join, place
// vertices by the deterministic hash partition, and answer CONGEST
// detections by exchanging per-round share payloads under /cluster/ — any
// shard answers POST /graphs/{name}/detect with a result bit-identical to a
// single-process run:
//
//	cdrwd -addr :8080 -cluster-size 3 -advertise http://10.0.0.1:8080 &
//	cdrwd -addr :8080 -cluster-size 3 -advertise http://10.0.0.2:8080 -join http://10.0.0.1:8080 &
//	cdrwd -addr :8080 -cluster-size 3 -advertise http://10.0.0.3:8080 -join http://10.0.0.1:8080 &
//
// Observability: every response carries an X-Request-Id (accepted from the
// client or minted); /graphs/ requests are traced with per-phase timing and
// retrievable from /debug/traces; logs flow through log/slog (-log-format,
// -log-level); -debug-addr opens a separate pprof/expvar listener. See
// docs/OBSERVABILITY.md.
//
// The full endpoint and metrics reference is docs/API.md.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cdrw/internal/cluster"
	"cdrw/internal/metrics"
	"cdrw/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	poolSize := flag.Int("pool", 0, "detector handles per (graph, option) pool (0 = GOMAXPROCS)")
	clusterSize := flag.Int("cluster-size", 0, "run as one shard of a k-machine cluster of this size (0 = single process)")
	advertise := flag.String("advertise", "", "base URL peers reach this shard at (required with -cluster-size)")
	join := flag.String("join", "", "comma-separated base URLs of known peers to gossip membership with")
	placementSeed := flag.Uint64("placement-seed", 1, "seed of the deterministic hash vertex placement (must match on every shard)")
	peerTimeout := flag.Duration("peer-timeout", 2*time.Second, "deadline for each cluster peer RPC; a peer silent past it fails the detection (502)")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "interval of the cluster peer liveness probes; 3 consecutive misses evict the peer and flip /readyz")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	debugAddr := flag.String("debug-addr", "", "optional listen address for net/http/pprof and expvar (never mounted on the serving address)")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdrwd:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	var cfg *cluster.Config
	if *clusterSize > 0 {
		cfg = &cluster.Config{
			Size:              *clusterSize,
			Advertise:         strings.TrimRight(*advertise, "/"),
			PlacementSeed:     *placementSeed,
			PeerTimeout:       *peerTimeout,
			HeartbeatInterval: *heartbeat,
		}
		for _, peer := range strings.Split(*join, ",") {
			if peer = strings.TrimRight(strings.TrimSpace(peer), "/"); peer != "" {
				cfg.Join = append(cfg.Join, peer)
			}
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		slog.Error("cdrwd listen failed", "addr", *addr, "error", err)
		os.Exit(1)
	}
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			slog.Error("cdrwd debug listen failed", "addr", *debugAddr, "error", err)
			os.Exit(1)
		}
		slog.Info("cdrwd debug endpoints listening", "addr", dln.Addr().String())
		go func() {
			if err := http.Serve(dln, debugMux()); err != nil {
				slog.Error("cdrwd debug server failed", "error", err)
			}
		}()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	slog.Info("cdrwd listening", "addr", ln.Addr().String(), "pool_size", *poolSize)
	if err := run(ctx, ln, *poolSize, cfg); err != nil {
		slog.Error("cdrwd failed", "error", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger from the -log-format and -log-level
// flags. Logs go to stderr either way; json selects one-object-per-line
// output for log shippers.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// debugMux is the -debug-addr surface: the pprof profile family and expvar.
// It is a private mux on a separate listener — the serving mux never exposes
// it, so profiling access can be firewalled independently of traffic.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// run serves the daemon on ln until ctx is done, then drains in-flight
// requests (bounded) and returns. Split from main so tests can drive a full
// daemon lifecycle — including shutdown goroutine accounting — in-process.
// A non-nil clusterCfg attaches a cluster shard node to the handler.
func run(ctx context.Context, ln net.Listener, poolSize int, clusterCfg *cluster.Config) error {
	m := metrics.NewServeMetrics()
	reg := serve.NewRegistry(poolSize, m)
	handler := serve.NewHandler(reg, m)
	if clusterCfg != nil {
		node, err := cluster.New(reg, *clusterCfg)
		if err != nil {
			return fmt.Errorf("cdrwd: %w", err)
		}
		node.Start()
		defer node.Stop()
		handler = serve.NewClusterHandler(reg, m, node)
		slog.Info("cdrwd cluster shard joining", "advertise", clusterCfg.Advertise,
			"size", clusterCfg.Size, "placement_seed", clusterCfg.PlacementSeed)
	}
	srv := &http.Server{
		Handler: handler,
		// Streams are long-lived by design; only bound the header read.
		// Deliberately no BaseContext on the signal ctx: shutdown must
		// drain in-flight requests, not cancel them — hard cancellation is
		// reserved for the post-grace srv.Close below (closing a request's
		// connection cancels its context, which aborts its detection run).
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// In-flight streams that outlive the grace period are cut hard.
		_ = srv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("cdrwd: %w", err)
	}
	return nil
}
