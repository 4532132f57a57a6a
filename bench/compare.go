package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/benchenv"
)

// recorded is one line of a --record file: the result line, and beside it
// an untraced run's guarded per-layer metrics and the times of its
// repetitions (run.samples).
type recorded struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Trace    bool         `json:"trace"`
	Env      benchenv.Env `json:"env"`
	result
	Guarded map[string]metricValue `json:"guarded,omitempty"`
	Samples map[string][]float64   `json:"samples,omitempty"`
}

func readRecords(path string) ([]recorded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []recorded
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec recorded
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver's acceptance rule uses. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqr is the distance between the quartiles; one value has none.
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return q3 - q1
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return iqr(xs) / m
}

// verdict applies the benchmark's rule to one (workload, metric) row: b
// against the baseline a.
//
//   - an exact metric (a count, F1) must be identical on both sides, and
//     within each side when its runs share a seed;
//   - a metric without a bound, or one the workload does not measure (0
//     on the baseline side), is not judged;
//   - otherwise a distance counts when it exceeds both the bound, as a
//     share of the side's median, and the metric's floor: the row is
//     unresolved when the distance between either side's own quartiles
//     counts, worse or better when the distance between the medians counts
//     in that direction, and same in between.
func verdict(d metricDecl, a, b []float64) string {
	if d.exact {
		for _, x := range append(append([]float64(nil), a...), b...) {
			if x != a[0] {
				return "worse"
			}
		}
		return "same"
	}
	ma, mb := median(a), median(b)
	if d.bound == 0 || ma == 0 {
		return "-"
	}
	counts := func(distance, base float64) bool {
		return distance > d.bound*base && distance > d.floor
	}
	if counts(iqr(a), ma) || counts(iqr(b), mb) {
		return "unresolved"
	}
	worse := mb - ma
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case counts(worse, ma):
		return "worse"
	case counts(-worse, ma):
		return "better"
	}
	return "same"
}

// compareFiles prints one row per (workload, metric) present in both
// files and reports whether any row is worse. Exact metrics are compared
// only when every run of the row has the same seed: across seeds a count
// differs because the inputs do.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	type key struct{ workload, metric string }
	group := func(recs []recorded) (map[key][]float64, map[string]map[int64]bool, int) {
		vals, seeds, failed := map[key][]float64{}, map[string]map[int64]bool{}, 0
		for _, rec := range recs {
			failed += rec.Failed
			if seeds[rec.Workload] == nil {
				seeds[rec.Workload] = map[int64]bool{}
			}
			seeds[rec.Workload][rec.Seed] = true
			for _, metrics := range []map[string]metricValue{rec.Metrics, rec.Guarded} {
				for name, v := range metrics {
					k := key{rec.Workload, name}
					vals[k] = append(vals[k], v.Value)
				}
			}
		}
		return vals, seeds, failed
	}
	va, seedsA, failedA := group(a)
	vb, seedsB, failedB := group(b)
	fmt.Fprintf(w, "%-14s %-40s %14s %14s %8s %8s  %s\n", "workload", "metric", "median a", "median b", "spread a", "spread b", "verdict")
	decls := append(append([]metricDecl(nil), endToEnd...), perLayer...)
	for _, workload := range workloadNames {
		oneSeed := len(seedsA[workload]) == 1 && len(seedsB[workload]) == 1
		for s := range seedsA[workload] {
			oneSeed = oneSeed && seedsB[workload][s]
		}
		for _, d := range decls {
			k := key{workload, d.name}
			xa, xb := va[k], vb[k]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			d.exact = d.exact && oneSeed
			v := verdict(d, xa, xb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-14s %-40s %14.6g %14.6g %7.1f%% %7.1f%%  %s\n", workload, d.name,
				median(xa), median(xb), 100*spread(xa), 100*spread(xb), v)
		}
	}
	fmt.Fprintf(w, "failed operations: a %d, b %d\n", failedA, failedB)
	return anyWorse || failedB > failedA, nil
}
