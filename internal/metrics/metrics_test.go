package metrics

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector must report disabled")
	}
	// Every method must be a no-op, not a panic.
	c.Inc(CoverageTests)
	c.Add(SubsumeNodes, 42)
	c.SetMax(BottomMaxDepth, 3)
	c.Observe(HistSubsumeNodes, 100)
	start := c.StartSpan()
	if !start.IsZero() {
		t.Fatal("disabled StartSpan must return the zero time")
	}
	c.EndSpan(SpanLearn, start)
	c.WorkerBusy(2, time.Second)
	if got := c.Counter(SubsumeNodes); got != 0 {
		t.Fatalf("nil counter = %d", got)
	}
	s := c.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 {
		t.Fatalf("nil snapshot must be empty, got %+v", s)
	}
}

func TestNilCollectorAllocatesNothing(t *testing.T) {
	var c *Collector
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc(CoverageTests)
		c.Add(SubsumeNodes, 7)
		c.Observe(HistSubsumeNodes, 7)
		c.EndSpan(SpanLearn, c.StartSpan())
	})
	if allocs != 0 {
		t.Fatalf("disabled collection allocated %.1f times per run", allocs)
	}
}

func TestCountersAndClassification(t *testing.T) {
	c := New()
	c.Inc(BottomConstructions)
	c.Add(BottomLiterals, 120)
	c.Inc(CoverageTests)
	c.Add(SubsumeNodes, 999)
	s := c.Snapshot()
	if got := s.Counters["bottom.constructions"]; got != 1 {
		t.Errorf("bottom.constructions = %d", got)
	}
	if got := s.Counters["bottom.literals"]; got != 120 {
		t.Errorf("bottom.literals = %d", got)
	}
	// Scheduling-dependent counters must land in Gauges, not Counters.
	if _, ok := s.Counters["coverage.tests"]; ok {
		t.Error("coverage.tests must not be classified deterministic")
	}
	if got := s.Gauges["coverage.tests"]; got != 1 {
		t.Errorf("gauge coverage.tests = %d", got)
	}
	if got := s.Gauges["subsume.nodes"]; got != 999 {
		t.Errorf("gauge subsume.nodes = %d", got)
	}
}

func TestSetMax(t *testing.T) {
	c := New()
	c.SetMax(BottomMaxDepth, 2)
	c.SetMax(BottomMaxDepth, 1)
	c.SetMax(BottomMaxDepth, 3)
	if got := c.Counter(BottomMaxDepth); got != 3 {
		t.Fatalf("max = %d, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	c := New()
	// Bounds for subsume.nodes_per_test: 0,10,100,1k,10k,100k,1M + overflow.
	for _, v := range []int64{0, 5, 10, 11, 100000, 2000000} {
		c.Observe(HistSubsumeNodes, v)
	}
	h := c.Snapshot().Histograms["subsume.nodes_per_test"]
	want := []int64{1, 2, 1, 0, 0, 1, 0, 1}
	if len(h.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(h.Counts), len(want))
	}
	for i := range want {
		if h.Counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, h.Counts[i], want[i], h.Counts)
		}
	}
	if h.Count != 6 || h.Sum != 0+5+10+11+100000+2000000 {
		t.Errorf("count/sum = %d/%d", h.Count, h.Sum)
	}
	if h.Deterministic {
		t.Error("subsume.nodes_per_test must be non-deterministic")
	}
	if !c.Snapshot().Histograms["bottom.literals_per_clause"].Deterministic {
		t.Error("bottom.literals_per_clause must be deterministic")
	}
}

func TestSpansAndWorkerBusy(t *testing.T) {
	c := New()
	start := c.StartSpan()
	time.Sleep(time.Millisecond)
	c.EndSpan(SpanCoverageCount, start)
	c.WorkerBusy(0, 10*time.Millisecond)
	c.WorkerBusy(3, 5*time.Millisecond)
	c.WorkerBusy(0, 10*time.Millisecond)
	s := c.Snapshot()
	sp := s.Spans["coverage.count"]
	if sp.Count != 1 || sp.TotalNS <= 0 {
		t.Errorf("span = %+v", sp)
	}
	if got := s.Gauges["coverage.worker_busy_ns.0"]; got != int64(20*time.Millisecond) {
		t.Errorf("worker 0 busy = %d", got)
	}
	if got := s.Gauges["coverage.worker_busy_ns.3"]; got != int64(5*time.Millisecond) {
		t.Errorf("worker 3 busy = %d", got)
	}
}

func TestConcurrentCollection(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc(CoverageTests)
				c.Add(SubsumeNodes, 3)
				c.Observe(HistSubsumeNodes, int64(i))
				c.SetMax(BottomMaxDepth, int64(w))
				c.WorkerBusy(w, time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	s := c.Snapshot()
	if got := s.Gauges["coverage.tests"]; got != workers*per {
		t.Errorf("coverage.tests = %d, want %d", got, workers*per)
	}
	if got := s.Gauges["subsume.nodes"]; got != workers*per*3 {
		t.Errorf("subsume.nodes = %d", got)
	}
	if got := c.Counter(BottomMaxDepth); got != workers-1 {
		t.Errorf("max depth = %d", got)
	}
	h := s.Histograms["subsume.nodes_per_test"]
	if h.Count != workers*per {
		t.Errorf("hist count = %d", h.Count)
	}
}

func TestDeterministicDiff(t *testing.T) {
	// Identical deterministic parts, divergent gauges → no diffs.
	c1, c2 := New(), New()
	c1.Add(BottomLiterals, 7)
	c2.Add(BottomLiterals, 7)
	c1.Add(SubsumeNodes, 100) // gauge: may diverge freely
	c2.Add(SubsumeNodes, 999)
	if diffs := c1.Snapshot().DeterministicDiff(c2.Snapshot()); len(diffs) != 0 {
		t.Errorf("gauge divergence must not diff: %v", diffs)
	}
	c2.Inc(LearnClauses)
	diffs := c1.Snapshot().DeterministicDiff(c2.Snapshot())
	if len(diffs) != 1 {
		t.Fatalf("diffs = %v", diffs)
	}
	c2.Observe(HistBottomLiterals, 9)
	if diffs := c1.Snapshot().DeterministicDiff(c2.Snapshot()); len(diffs) != 2 {
		t.Errorf("deterministic histogram divergence must diff: %v", diffs)
	}
}

func TestWriteFileRoundTrip(t *testing.T) {
	c := New()
	c.Add(BottomLiterals, 11)
	c.Inc(SubsumeTests)
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := c.Snapshot().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["bottom.literals"] != 11 || s.Gauges["subsume.tests"] != 1 {
		t.Fatalf("round trip lost data: %+v", s)
	}
}

func TestNamedGauges(t *testing.T) {
	var nilC *Collector
	// Nil-safety: the shard coordinator and worker publish named gauges
	// unconditionally.
	nilC.AddNamedGauge("shard.wire_bytes_sent", 42)
	if got := nilC.NamedGauge("shard.wire_bytes_sent"); got != 0 {
		t.Fatalf("nil named gauge = %d", got)
	}

	c := New()
	c.AddNamedGauge("shard.wire_bytes_sent", 1024)
	c.AddNamedGauge("shard.fallback_local", 2)
	c.AddNamedGauge("shard.wire_bytes_sent", -24)
	if got := c.NamedGauge("shard.wire_bytes_sent"); got != 1000 {
		t.Fatalf("named gauge = %d, want 1000", got)
	}
	s := c.Snapshot()
	if s.Gauges["shard.wire_bytes_sent"] != 1000 || s.Gauges["shard.fallback_local"] != 2 {
		t.Fatalf("snapshot gauges %+v", s.Gauges)
	}
}
