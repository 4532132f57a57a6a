package bottom

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/db"
)

// seeded takes a state for one build that draws from its own generator,
// seeded with seed, as Ground's build does.
func seeded(b *Builder, ground bool, seed int64) *state {
	st := b.plan.newState(b, ground, nil)
	st.own.Seed(seed)
	return st
}

// olkenSampleOracle is the per-attempt Olken sampler olkenSample
// replaced: it probes rel's index for m(a) on every attempt and dedupes
// picks by (value, offset). Kept as the reference for the draw stream,
// which it reads from the build state's generator.
func olkenSampleOracle(st *state, rel *db.Relation, attr int, values []string) []db.Tuple {
	maxFreq := rel.MaxFrequency(attr)
	if maxFreq == 0 {
		return nil
	}
	s := st.b.opts.SampleSize
	maxAttempts := 20 * s
	rng := rand.New(st.src)
	var out []db.Tuple
	type pick struct {
		value string
		idx   int
	}
	var picked []pick
	for attempts := 0; attempts < maxAttempts && len(out) < s; attempts++ {
		a := values[rng.Intn(len(values))]
		m := rel.Frequency(attr, a)
		if m == 0 {
			continue
		}
		i := rng.Intn(m)
		if rng.Float64() >= float64(m)/float64(maxFreq) {
			continue
		}
		key := pick{value: a, idx: i}
		if slices.Contains(picked, key) {
			continue
		}
		picked = append(picked, key)
		out = append(out, rel.Lookup(attr, a)[i])
	}
	return out
}

// olkenFrontiers returns distinct-valued frontier sets over one column
// of rel: for each size n,
//   - n values drawn from the column;
//   - n values of which every other one the column does not hold (m = 0);
//   - n values none of which the column holds (Σm = 0: the whole call is
//     drain);
//   - up to n values drawn from the column whose matches number fewer
//     than s (Σm < s: the sample completes, and the drain starts, before
//     the attempts run out).
func olkenFrontiers(r *rand.Rand, rel *db.Relation, attr int, sizes []int, s int) [][]string {
	column := rel.DistinctValues(attr)
	var out [][]string
	for _, n := range sizes {
		perm := r.Perm(len(column))
		var present, mixed, absent, sparse []string
		for k := 0; k < n && k < len(perm); k++ {
			present = append(present, column[perm[k]])
		}
		for k := 0; k < n; k++ {
			absent = append(absent, fmt.Sprintf("absent_%d", k))
			if k%2 == 0 {
				mixed = append(mixed, fmt.Sprintf("absent_%d", k))
			} else if k < len(perm) {
				mixed = append(mixed, column[perm[k]])
			}
		}
		matches := 0
		for _, p := range perm {
			if len(sparse) == n {
				break
			}
			if m := rel.Frequency(attr, column[p]); matches+m < s {
				sparse = append(sparse, column[p])
				matches += m
			}
		}
		out = append(out, present, mixed, absent, sparse)
	}
	return out
}

// olkenDrainOracle makes n Olken attempts' draws through rng, as the
// per-attempt sampler makes them: Intn(len(freq)), then Intn(m) and
// Float64() when the value's frequency m is not 0.
func olkenDrainOracle(rng *rand.Rand, n int, freq []int) {
	for ; n > 0; n-- {
		if m := freq[rng.Intn(len(freq))]; m > 0 {
			rng.Intn(m)
			rng.Float64()
		}
	}
}

// TestOlkenStreamUnchanged holds olkenSample to the per-attempt oracle on
// every (relation, attribute) of the five induced tasks: identically
// seeded build states of one builder must return the same tuples in the
// same order and leave their generators in the same state, so every random-sampled BC —
// the rest of a build's draws included — is the oracle's. The sparse and
// all-absent frontiers pin the drain: attempts made after the sample is
// complete must advance the source by exactly the oracle's draws. Most
// frontier sizes are not powers of two, so the value draw divides and
// may redraw.
//
// No relation holds a value often enough for Int31n(m) to redraw more
// than rarely, so the drain is also run alone, on frontiers whose
// frequencies reject up to half their draws (1<<30+1) beside absent
// values, against olkenDrainOracle.
func TestOlkenStreamUnchanged(t *testing.T) {
	tasks := loadInducedTasks(t)
	cases := 0
	for _, name := range datagen.Names() {
		task := tasks[name]
		b := NewBuilder(task.ds.DB, task.c, Options{Strategy: Random})
		s := b.opts.SampleSize
		frontierRNG := rand.New(rand.NewSource(1))
		for _, relName := range task.ds.DB.Schema().Names() {
			rel := task.ds.DB.Relation(relName)
			for attr := range task.ds.DB.Schema().Relation(relName).Attributes {
				for _, values := range olkenFrontiers(frontierRNG, rel, attr, []int{1, 2, 3, 5, 7, 13, s}, s) {
					if len(values) == 0 {
						continue
					}
					for seed := int64(1); seed <= 3; seed++ {
						got, want := seeded(b, true, seed), seeded(b, true, seed)
						gotTuples := got.olkenSample(rel, attr, values, nil)
						wantTuples := olkenSampleOracle(want, rel, attr, values)
						if !slices.EqualFunc(gotTuples, wantTuples, slices.Equal) {
							t.Fatalf("%s %s.%d %v seed %d: sample %v, oracle %v", name, relName, attr, values, seed, gotTuples, wantTuples)
						}
						if g, w := got.src.Int63(), want.src.Int63(); g != w {
							t.Fatalf("%s %s.%d %v seed %d: next draw %d, oracle %d", name, relName, attr, values, seed, g, w)
						}
						b.plan.release(got)
						b.plan.release(want)
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d frontier draws match the oracle", cases)

	heavy := []int{1<<30 + 1, 1<<31 - 1, 3 << 29, 1<<30 + 1<<29 + 7, 0, 5, 1 << 20, 0, 3}
	drains := 0
	for nv := 1; nv <= len(heavy); nv++ {
		freq := heavy[len(heavy)-nv:]
		bound := make([]int32, nv)
		for k, m := range freq {
			if m > 0 {
				bound[k] = int31nMax(int32(m))
			}
		}
		for seed := int64(1); seed <= 20; seed++ {
			for _, n := range []int{1, 7, 400} {
				var got source
				got.Seed(seed)
				want := rand.New(rand.NewSource(seed))
				got.drainOlken(n, bound)
				olkenDrainOracle(want, n, freq)
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("frequencies %v seed %d, %d attempts: next draw %d, oracle %d", freq, seed, n, g, w)
				}
				drains++
			}
		}
	}
	t.Logf("%d synthetic drains match the oracle", drains)
}
