package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"cdrw/internal/congest"
)

// settleGoroutines polls until the goroutine count drops back to the
// baseline (cancelled workers need a moment to observe ctx and unwind).
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s leaked goroutines: %d running, baseline %d",
				what, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancellationLeaksNoGoroutines: cancelling mid-run tears down the
// DetectParallel workers and the CONGEST ladder workers without leaving
// anything running — runtime.NumGoroutine returns to its pre-run baseline
// after every cancelled run.
func TestCancellationLeaksNoGoroutines(t *testing.T) {
	ppm := ppmGraph(t, 512, 4, 2, 0.1, 211)
	base := runtime.NumGoroutine()

	// Parallel engine: cancel from a worker's own step observer, so the
	// cancellation lands while the other workers are live.
	{
		ctx, cancel := context.WithCancel(context.Background())
		steps := 0
		_, err := DetectParallelContext(ctx, ppm.Graph, 4,
			WithDelta(ppm.Config.ExpectedConductance()),
			WithStepObserver(SynchronizedObserver(func(StepTiming) {
				if steps++; steps == 2 {
					cancel()
				}
			})))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel: error %v, want context.Canceled", err)
		}
		cancel()
		settleGoroutines(t, base, "DetectParallel cancellation")
	}

	// CONGEST engine: cancel from the detection observer after the first
	// community freezes.
	{
		ctx, cancel := context.WithCancel(context.Background())
		d, err := NewDetector(ppm.Graph,
			WithEngine(EngineCongest),
			WithDelta(ppm.Config.ExpectedConductance()),
			WithDetectionObserver(func(Detection) { cancel() }))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Detect(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("congest: error %v, want context.Canceled", err)
		}
		cancel()
		settleGoroutines(t, base, "CONGEST cancellation")
	}

	// Batched CONGEST pool (WithCongestBatch(4)) on 4 ladder cores: cancel
	// from the network's load observer once the first super-step's walks
	// have a few shared rounds in flight.
	{
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		small := ppmGraph(t, 128, 4, 2, 0.1, 211)
		ctx, cancel := context.WithCancel(context.Background())
		d, err := NewDetector(small.Graph,
			WithEngine(EngineCongest), WithCongestBatch(4),
			WithDelta(small.Config.ExpectedConductance()))
		if err != nil {
			t.Fatal(err)
		}
		rounds := 0
		d.network().SetLoadObserver(func(int, []congest.LinkLoad) {
			if rounds++; rounds == 5 {
				cancel()
			}
		})
		if _, err := d.Detect(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("batched congest: error %v, want context.Canceled", err)
		}
		cancel()
		settleGoroutines(t, base, "batched CONGEST pool cancellation")
	}
}
