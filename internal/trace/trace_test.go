package trace

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestNilTraceIsFree pins the disabled-path contract: every method on a
// nil *Trace is a safe no-op and allocates nothing — the hot paths guard
// on one pointer and must pay nothing more.
func TestNilTraceIsFree(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(100, func() {
		tr.AddPhase(PhaseWalk, time.Millisecond)
		tr.AddSpan("x", 0, time.Time{}, time.Millisecond)
		tr.Finish(time.Second)
		_ = tr.ID()
		_ = tr.PhaseNS(PhaseSweep)
	})
	if allocs != 0 {
		t.Fatalf("nil-trace no-ops allocated %.0f/run, want 0", allocs)
	}
	if s := tr.Snapshot(); s.ID != "" || len(s.Spans) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}
}

// TestFromContextAllocFree pins that the per-run trace lookup the
// Detector performs on every beginRun is allocation-free, both when a
// trace is present and when it is absent.
func TestFromContextAllocFree(t *testing.T) {
	tr := New(NewID(), "t")
	with := NewContext(context.Background(), tr)
	without := context.WithValue(context.Background(), struct{ k string }{"other"}, 1)
	allocs := testing.AllocsPerRun(100, func() {
		if FromContext(with) != tr {
			t.Fatal("trace lost")
		}
		if FromContext(without) != nil {
			t.Fatal("phantom trace")
		}
		if FromContext(context.Background()) != nil {
			t.Fatal("phantom trace in background")
		}
	})
	if allocs != 0 {
		t.Fatalf("FromContext allocated %.0f/run, want 0", allocs)
	}
}

func TestNewIDShape(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("id %q: want 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q within 1000 mints", id)
		}
		seen[id] = true
	}
}

func TestPhaseAccumulationAndSnapshot(t *testing.T) {
	start := time.Now()
	tr := NewAt("abc", "POST /graphs/g/detect", start)
	tr.AddPhase(PhaseWalk, 2*time.Millisecond)
	tr.AddPhase(PhaseWalk, 3*time.Millisecond)
	tr.AddPhase(PhaseCache, time.Millisecond)
	tr.AddSpan("shard", 2, start, 4*time.Millisecond, Attr{"rounds", "7"})
	tr.Finish(10 * time.Millisecond)

	if got := tr.PhaseNS(PhaseWalk); got != int64(5*time.Millisecond) {
		t.Fatalf("walk ns = %d", got)
	}
	s := tr.Snapshot()
	if s.ID != "abc" || s.DurationSeconds != 0.01 {
		t.Fatalf("snapshot header off: %+v", s)
	}
	if s.PhaseSeconds["walk"] != 0.005 || s.PhaseSeconds["cache"] != 0.001 {
		t.Fatalf("phase seconds off: %v", s.PhaseSeconds)
	}
	if _, ok := s.PhaseSeconds["flood"]; ok {
		t.Fatal("zero phases must be omitted")
	}
	if len(s.Spans) != 1 || s.Spans[0].Rank != 2 || s.Spans[0].Attrs["rounds"] != "7" {
		t.Fatalf("span snapshot off: %+v", s.Spans)
	}
}

func TestSpanBound(t *testing.T) {
	tr := New("x", "t")
	for i := 0; i < maxSpans+10; i++ {
		tr.AddSpan("s", 0, time.Now(), time.Microsecond)
	}
	s := tr.Snapshot()
	if len(s.Spans) != maxSpans || s.DroppedSpans != 10 {
		t.Fatalf("spans %d dropped %d, want %d/%d", len(s.Spans), s.DroppedSpans, maxSpans, 10)
	}
}

func TestPhaseNames(t *testing.T) {
	want := map[Phase]string{
		PhaseWalk: "walk", PhaseSweep: "sweep", PhaseFlood: "flood",
		PhasePeerPull: "peer_pull", PhaseCache: "cache",
	}
	for p, name := range want {
		if p.String() != name {
			t.Fatalf("phase %d: %q, want %q", p, p.String(), name)
		}
	}
	if Phase(200).String() != "unknown" {
		t.Fatal("out-of-range phase must stringify as unknown")
	}
	for i, p := range Phases() {
		if int(p) != i {
			t.Fatalf("Phases()[%d] = %d", i, p)
		}
	}
}

// TestRecorderRing pins eviction order and lookup: the ring keeps the
// newest size traces, lists them newest first, and Get prefers the most
// recent trace under a reused ID.
func TestRecorderRing(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Add(New(fmt.Sprintf("id%d", i), "t"))
	}
	snaps := r.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("ring holds %d, want 4", len(snaps))
	}
	for i, want := range []string{"id5", "id4", "id3", "id2"} {
		if snaps[i].ID != want {
			t.Fatalf("snapshot %d = %s, want %s", i, snaps[i].ID, want)
		}
	}
	if r.Get("id1") != nil {
		t.Fatal("evicted trace still retrievable")
	}
	if tr := r.Get("id4"); tr == nil || tr.ID() != "id4" {
		t.Fatal("retained trace not retrievable")
	}
	dup := New("id5", "newer")
	r.Add(dup)
	if got := r.Get("id5"); got != dup {
		t.Fatal("Get must prefer the newest trace under a reused ID")
	}
}

// TestRecorderConcurrent hammers one recorder (and one shared trace)
// from many goroutines; run under -race this is the data-race proof for
// the /debug/traces serving path against live request traffic.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(16)
	shared := New("shared", "t")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := New(NewID(), "t")
				tr.AddPhase(Phase(i%int(NumPhases)), time.Microsecond)
				tr.AddSpan("work", g, time.Now(), time.Microsecond, Attr{"i", "x"})
				tr.Finish(time.Millisecond)
				r.Add(tr)
				shared.AddPhase(PhaseFlood, time.Nanosecond)
				shared.AddSpan("s", g, time.Now(), time.Nanosecond)
				if i%10 == 0 {
					r.Add(shared)
					_ = r.Snapshots()
					_ = r.Get("shared")
					_ = shared.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if len(r.Snapshots()) != 16 {
		t.Fatal("ring not full after concurrent load")
	}
}

func TestRecorderNilAndDefaults(t *testing.T) {
	var r *Recorder
	r.Add(New("x", "t")) // no-op, no panic
	if r.Get("x") != nil || r.Snapshots() != nil {
		t.Fatal("nil recorder must be inert")
	}
	if got := len(NewRecorder(0).ring); got != defaultRingSize {
		t.Fatalf("default ring size %d, want %d", got, defaultRingSize)
	}
}
