package main

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// call is one request of a workload's fixed timed sequence.
type call struct {
	method string
	path   string
	body   []byte
	// write marks a mutation (PATCH); its latency is kept apart from reads.
	write bool
	// seed is the community seed of a single-seed read, or -1.
	seed int
	// state is the graph state a mutate-read read observes (0 = the
	// registered graph, b+1 = the registered graph plus batch b).
	state int
}

// loopResult is what one closed-loop pass over a sequence measured.
type loopResult struct {
	// lat holds each call's latency, in sequence order: from sending the
	// request to reading the last byte of the response body.
	lat    []time.Duration
	wall   time.Duration
	failed int
	// failures holds the first few failure messages.
	failures []string
	// respBytes sums the response body sizes.
	respBytes int64
}

// checkFunc inspects one 200 response; body is only valid during the call.
type checkFunc func(c *call, body []byte) error

// drive sends seq to base as a closed loop of clients: each client sends
// its next call only after the previous response's last byte arrived, and
// calls are handed out in sequence order, so every pass does the same work.
// check sees every 200 response; a transport error, another status or a
// check failure counts the call as failed. traced adds an X-Request-Id per
// call.
func drive(base string, clients int, seq []call, traced bool, check checkFunc) loopResult {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	res := loopResult{lat: make([]time.Duration, len(seq))}
	var (
		next   atomic.Int64
		nbytes atomic.Int64
		mu     sync.Mutex
		wg     sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		res.failed++
		if len(res.failures) < 5 {
			res.failures = append(res.failures, fmt.Sprintf("call %d (%s %s): %v", i, seq[i].method, seq[i].path, err))
		}
	}
	start := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				c := &seq[i]
				n, lat, err := send(client, base, c, traced, i, &buf)
				res.lat[i] = lat
				nbytes.Add(n)
				if err == nil {
					err = check(c, buf.Bytes())
				}
				if err != nil {
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.respBytes = nbytes.Load()
	return res
}

// send issues one call, reads its whole body into buf and returns the body
// size and the latency; a status other than 200 is an error.
func send(client *http.Client, base string, c *call, traced bool, i int, buf *bytes.Buffer) (int64, time.Duration, error) {
	req, err := http.NewRequest(c.method, base+c.path, bytes.NewReader(c.body))
	if err != nil {
		return 0, 0, err
	}
	if traced {
		req.Header.Set("X-Request-Id", fmt.Sprintf("pb%014d", i))
	}
	buf.Reset()
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, time.Since(t0), err
	}
	n, err := buf.ReadFrom(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return n, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return n, lat, fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	}
	return n, lat, nil
}

// split returns the sorted read and write latencies of a pass, in ms.
func (r loopResult) split(seq []call) (reads, writes []float64) {
	for i, d := range r.lat {
		ms := float64(d) / float64(time.Millisecond)
		if seq[i].write {
			writes = append(writes, ms)
		} else {
			reads = append(reads, ms)
		}
	}
	sort.Float64s(reads)
	sort.Float64s(writes)
	return reads, writes
}

// quantile returns the q-quantile of sorted by linear interpolation between
// the closest ranks (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// beyond reports how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int {
	return n - int(float64(n)*q+0.5)
}
