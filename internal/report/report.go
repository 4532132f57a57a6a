// Package report records the events that changed a learning run: the
// moments where the system traded completeness for bounded execution —
// a deadline interrupting work mid-primitive, a recovered worker panic
// isolated to one example, a coverage count abandoned, a shard's
// examples lost — and the shard-transport recoveries that left the
// result exact but moved work. A run with an empty report ran exactly,
// on its planned transport; a degraded run still returns its best
// partial theory (anytime semantics), and the report is the caller's
// record of what was sacrificed and where. Work the run did as designed
// — an exhausted subsumption budget (§5's approximation) included — is
// counted once, by internal/metrics, not here.
//
// A Report is safe for concurrent use (coverage workers append to it)
// and nil-safe: every method works on a nil receiver, so library code
// records unconditionally and only callers that care allocate one.
package report

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a degradation event.
type Kind string

const (
	// DeadlineHit: the run's deadline or cancellation interrupted the
	// covering loop; the theory learned so far was returned.
	DeadlineHit Kind = "deadline-hit"
	// PanicRecovered: a coverage worker panicked; the panic was isolated
	// to the (clause, example) test, which scored "not covered".
	PanicRecovered Kind = "panic-recovered"
	// CoverageAbandoned: a coverage count was interrupted before
	// finishing its example set.
	CoverageAbandoned Kind = "coverage-abandoned"
	// BottomAbandoned: a bottom-clause construction was interrupted.
	BottomAbandoned Kind = "bottom-build-abandoned"
	// ShardRetried: a coverage RPC to a shard worker failed and was
	// retried (with backoff) on the shard's next replica. Verdicts are
	// pure, so the result is exact; recorded for observability.
	ShardRetried Kind = "shard-rpc-retried"
	// ShardFellBackLocal: a shard's attempts ran out, so its examples
	// are computed in-process for the rest of the run. The result is
	// exact — only the distribution degraded.
	ShardFellBackLocal Kind = "shard-fell-back-local"
	// ShardLost: a shard (all replicas) died and local fallback was
	// disabled; its example range could not be evaluated and the run was
	// abandoned with a partial (anytime) theory.
	ShardLost Kind = "shard-lost"
)

// exactKinds are shard-transport recoveries whose merge contract
// guarantees bit-identical outcomes. They do not make a run Degraded.
var exactKinds = map[Kind]bool{
	ShardRetried:       true,
	ShardFellBackLocal: true,
}

// Event is one recorded degradation.
type Event struct {
	Kind Kind
	// Site names where it happened (package.function or faultpoint site).
	Site string
	// Example is the example the event isolated, when applicable.
	Example string
	// Detail is free-form context (panic message, counts).
	Detail string
}

func (e Event) String() string {
	var b strings.Builder
	b.WriteString(string(e.Kind))
	if e.Site != "" {
		fmt.Fprintf(&b, " at %s", e.Site)
	}
	if e.Example != "" {
		fmt.Fprintf(&b, " [example %s]", e.Example)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, ": %s", e.Detail)
	}
	return b.String()
}

// maxEventsPerKind caps stored events so a run that recovers thousands
// of panics or retries cannot balloon the report; Count still reflects
// every occurrence.
const maxEventsPerKind = 32

// Report accumulates events. The zero value is NOT usable — use New —
// but a nil *Report is: all methods no-op or return zero values, so
// recording code never branches on whether a caller asked for a report.
type Report struct {
	mu     sync.Mutex
	events []Event
	counts map[Kind]int
	kept   map[Kind]int
}

// New returns an empty report.
func New() *Report {
	return &Report{counts: make(map[Kind]int), kept: make(map[Kind]int)}
}

// Add records an event (nil-safe, concurrency-safe). At most a fixed
// number of events per kind are retained verbatim; counts are exact.
func (r *Report) Add(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[e.Kind]++
	if r.kept[e.Kind] < maxEventsPerKind {
		r.kept[e.Kind]++
		r.events = append(r.events, e)
	}
}

// Events returns a copy of the retained events, in recording order.
func (r *Report) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Count returns how many events of the kind were recorded (including
// those beyond the retention cap).
func (r *Report) Count(k Kind) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[k]
}

// Degraded reports whether the run recorded any degradation beyond the
// kinds that provably leave results exact (see exactKinds).
func (r *Report) Degraded() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, n := range r.counts {
		if !exactKinds[k] && n > 0 {
			return true
		}
	}
	return false
}

// Summary renders one line of per-kind counts, e.g.
// "deadline-hit=1 coverage-abandoned=3 shard-rpc-retried=2";
// empty for a clean run.
func (r *Report) Summary() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kinds := make([]string, 0, len(r.counts))
	for k, n := range r.counts {
		if n > 0 {
			kinds = append(kinds, string(k))
		}
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, r.counts[Kind(k)])
	}
	return strings.Join(parts, " ")
}
