// Package ind discovers unary inclusion dependencies (INDs) from database
// content. It reimplements the divide-and-conquer strategy of Binder
// (Papenbrock et al., PVLDB 2015) that the paper uses for its
// preprocessing step (§3.1): generate all unary candidate INDs, partition
// the distinct values of every attribute into hash buckets small enough
// for memory, then validate every candidate bucket by bucket. An exact
// IND R[A] ⊆ S[B] must pass every bucket; an approximate IND
// (R[A] ⊆ S[B], α) may lose up to an α fraction of R[A]'s distinct
// values across all buckets.
package ind

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/db"
	"repro/internal/metrics"
)

// AttrID identifies an attribute by relation name and position.
type AttrID struct {
	Relation string
	Attr     int
}

// String renders as relation[attrName] when the schema is not at hand.
func (a AttrID) String() string { return fmt.Sprintf("%s[%d]", a.Relation, a.Attr) }

// IND is a unary inclusion dependency From ⊆ To with an error rate: the
// fraction of distinct values in From that must be removed for the
// dependency to hold exactly (paper §3.1). Error 0 means exact.
type IND struct {
	From  AttrID
	To    AttrID
	Error float64
}

// IsExact reports whether the IND holds with no error.
func (i IND) IsExact() bool { return i.Error == 0 }

func (i IND) String() string {
	if i.IsExact() {
		return fmt.Sprintf("%v ⊆ %v", i.From, i.To)
	}
	return fmt.Sprintf("(%v ⊆ %v, %.2f)", i.From, i.To, i.Error)
}

// Options configures discovery.
type Options struct {
	// MaxError is the highest approximate-IND error rate to keep.
	// 0 keeps only exact INDs. The paper uses 0.5 (§3.1).
	MaxError float64
	// Metrics, when non-nil, receives discovery counters (candidates
	// checked, validated, pruned), the ind.discover span, and the
	// error-rate histogram of validated INDs. All deterministic:
	// discovery is sequential.
	Metrics *metrics.Collector
}

// buckets is the number of hash partitions Binder validates
// independently.
const buckets = 16

// minDistinct is the fewest distinct values an IND left-hand side may
// have: only empty attributes are skipped. NULLs (empty-string values)
// never count as distinct values: an all-NULL column is treated like an
// empty one and excluded, and a NULL on the left-hand side never counts
// against an IND (standard SQL inclusion-dependency semantics, as in
// Binder).
const minDistinct = 1

// Discover returns every unary IND with error ≤ opts.MaxError between
// distinct attributes of the database, sorted deterministically
// (ascending error, then lexicographic endpoints). Self-INDs
// (an attribute with itself) are omitted; INDs between different
// attributes of the same relation are kept, as the paper's UW example
// (ta[stud] ⊆ student[stud]) requires cross- and intra-relation edges.
func Discover(d *db.Database, opts Options) []IND {
	out, _ := DiscoverCtx(context.Background(), d, opts)
	return out
}

// DiscoverCtx is Discover under a context, polled once per bucket (the
// natural unit of Binder's divide step). A cancelled discovery returns
// (nil, ctx.Err()): partially-validated counts would under-report
// missing values and admit spurious INDs, so no partial result is
// offered.
func DiscoverCtx(ctx context.Context, d *db.Database, opts Options) ([]IND, error) {
	return discover(ctx, d, opts, buckets, minDistinct)
}

// discover is DiscoverCtx over nBuckets hash partitions, skipping
// left-hand sides with fewer than minLHS distinct values; the tests vary
// both.
func discover(ctx context.Context, d *db.Database, opts Options, nBuckets, minLHS int) ([]IND, error) {
	opts.MaxError = max(opts.MaxError, 0)
	mc := opts.Metrics
	spanStart := mc.StartSpan()
	defer mc.EndSpan(metrics.SpanINDDiscover, spanStart)

	attrs, distinct := collectAttributes(d, minLHS)
	n := len(attrs)
	if n == 0 {
		return nil, nil
	}

	// missing[a][b] counts distinct values of attribute a absent from b.
	missing := make([][]int, n)
	for i := range missing {
		missing[i] = make([]int, n)
	}

	// Divide: assign each distinct (value) to a bucket; conquer: validate
	// within each bucket independently. Only the current bucket's
	// value→attribute-set map is held in memory at a time, mirroring
	// Binder's main-memory partitioning.
	for bucket := 0; bucket < nBuckets; bucket++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		valueAttrs := make(map[string][]int)
		for ai, id := range attrs {
			rel := d.Relation(id.Relation)
			for _, v := range rel.DistinctValues(id.Attr) {
				if v == "" {
					// NULL: absent from validation on either side, so a NULL
					// on the left never counts against an IND.
					continue
				}
				if bucketOf(v, nBuckets) != bucket {
					continue
				}
				valueAttrs[v] = append(valueAttrs[v], ai)
			}
		}
		for _, present := range valueAttrs {
			isPresent := make(map[int]bool, len(present))
			for _, a := range present {
				isPresent[a] = true
			}
			for _, a := range present {
				row := missing[a]
				for b := 0; b < n; b++ {
					if !isPresent[b] {
						row[b]++
					}
				}
			}
		}
	}

	var out []IND
	for a := 0; a < n; a++ {
		if distinct[a] == 0 {
			continue
		}
		for b := 0; b < n; b++ {
			if a == b || attrs[a] == attrs[b] {
				continue
			}
			mc.Inc(metrics.INDCandidates)
			errRate := float64(missing[a][b]) / float64(distinct[a])
			if errRate <= opts.MaxError {
				mc.Inc(metrics.INDValidated)
				mc.Observe(metrics.HistINDErrorPct, int64(errRate*100))
				out = append(out, IND{From: attrs[a], To: attrs[b], Error: errRate})
			} else {
				mc.Inc(metrics.INDPruned)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Error != b.Error {
			return a.Error < b.Error
		}
		if a.From != b.From {
			return lessAttr(a.From, b.From)
		}
		return lessAttr(a.To, b.To)
	})
	return out, nil
}

// Exact returns only the exact INDs of the database; a convenience for
// callers that do not want approximate dependencies.
func Exact(d *db.Database) []IND {
	return Discover(d, Options{MaxError: 0})
}

// Holds validates a single unary IND candidate directly (without the
// bucketed pass) and returns its exact error rate: the brute-force
// reference the tests hold Discover to.
func Holds(d *db.Database, from, to AttrID) (float64, error) {
	fr := d.Relation(from.Relation)
	tr := d.Relation(to.Relation)
	if fr == nil || tr == nil {
		return 0, fmt.Errorf("ind: unknown relation in %v ⊆ %v", from, to)
	}
	if from.Attr >= fr.Schema.Arity() || to.Attr >= tr.Schema.Arity() {
		return 0, fmt.Errorf("ind: attribute out of range in %v ⊆ %v", from, to)
	}
	miss, total := 0, 0
	for _, v := range fr.DistinctValues(from.Attr) {
		if v == "" {
			continue // NULL: never counts on either side
		}
		total++
		if !tr.Contains(to.Attr, v) {
			miss++
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("ind: empty left-hand side %v", from)
	}
	return float64(miss) / float64(total), nil
}

func collectAttributes(d *db.Database, minDistinct int) ([]AttrID, []int) {
	var attrs []AttrID
	var distinct []int
	for _, name := range d.Schema().Names() {
		rel := d.Relation(name)
		for i := 0; i < rel.Schema.Arity(); i++ {
			n := rel.DistinctCount(i)
			if rel.Contains(i, "") {
				// NULLs are not values: an all-NULL column counts as empty.
				n--
			}
			if n < minDistinct {
				continue
			}
			attrs = append(attrs, AttrID{Relation: name, Attr: i})
			distinct = append(distinct, n)
		}
	}
	return attrs, distinct
}

func bucketOf(v string, buckets int) int {
	h := fnv.New32a()
	h.Write([]byte(v))
	return int(h.Sum32() % uint32(buckets))
}

func lessAttr(a, b AttrID) bool {
	if a.Relation != b.Relation {
		return a.Relation < b.Relation
	}
	return a.Attr < b.Attr
}
