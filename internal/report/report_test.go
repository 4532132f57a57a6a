package report

import (
	"strings"
	"sync"
	"testing"
)

func TestNilReceiverIsSafe(t *testing.T) {
	var r *Report
	r.Add(Event{Kind: DeadlineHit})
	if r.Events() != nil || r.Count(DeadlineHit) != 0 || r.Degraded() || r.Summary() != "" {
		t.Fatal("nil report not inert")
	}
}

func TestCountsAndRetentionCap(t *testing.T) {
	r := New()
	for i := 0; i < 100; i++ {
		r.Add(Event{Kind: ShardRetried, Site: "shard.rpc:0"})
	}
	r.Add(Event{Kind: DeadlineHit, Site: "learn.Learn"})
	if got := r.Count(ShardRetried); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if got := len(r.Events()); got != maxEventsPerKind+1 {
		t.Fatalf("retained %d events, want %d", got, maxEventsPerKind+1)
	}
}

func TestDegradedIgnoresExactKinds(t *testing.T) {
	r := New()
	r.Add(Event{Kind: ShardRetried})
	if r.Degraded() {
		t.Fatal("a shard retry alone should not mark the run degraded")
	}
	r.Add(Event{Kind: PanicRecovered, Example: "p(a)"})
	if !r.Degraded() {
		t.Fatal("panic-recovered must mark the run degraded")
	}
}

func TestShardKindsExactness(t *testing.T) {
	// ShardRetried and ShardFellBackLocal describe recoveries that leave
	// the result exact; only losing a shard's examples degrades the run.
	r := New()
	r.Add(Event{Kind: ShardRetried, Site: "shard.rpc:2"})
	r.Add(Event{Kind: ShardFellBackLocal, Site: "shard:1"})
	if r.Degraded() {
		t.Fatalf("exact shard recoveries must not mark the run degraded: %s", r.Summary())
	}
	r.Add(Event{Kind: ShardLost, Site: "shard:0"})
	if !r.Degraded() {
		t.Fatal("shard loss must mark the run degraded")
	}
	s := r.Summary()
	for _, want := range []string{"shard-rpc-retried=1", "shard-fell-back-local=1", "shard-lost=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary %q missing %q", s, want)
		}
	}
}

func TestSummaryAndEventString(t *testing.T) {
	r := New()
	r.Add(Event{Kind: DeadlineHit, Site: "learn.Learn"})
	r.Add(Event{Kind: CoverageAbandoned, Site: "coverage.count"})
	r.Add(Event{Kind: CoverageAbandoned, Site: "coverage.count"})
	s := r.Summary()
	if !strings.Contains(s, "deadline-hit=1") || !strings.Contains(s, "coverage-abandoned=2") {
		t.Fatalf("Summary = %q", s)
	}
	e := Event{Kind: PanicRecovered, Site: "coverage.test", Example: "p(a)", Detail: "boom"}
	if got := e.String(); got != "panic-recovered at coverage.test [example p(a)]: boom" {
		t.Fatalf("Event.String = %q", got)
	}
}

func TestConcurrentAdd(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Add(Event{Kind: CoverageAbandoned})
			}
		}()
	}
	wg.Wait()
	if got := r.Count(CoverageAbandoned); got != 400 {
		t.Fatalf("Count = %d, want 400", got)
	}
}
