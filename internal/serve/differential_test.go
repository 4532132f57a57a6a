package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/model"
)

// chainWorld is a parent chain p000→p001→…→p(n-1) with the grandparent
// theory — testWorld at an arbitrary size, so differential runs have
// enough distinct examples to force real memo churn.
func chainWorld(t testing.TB, n int) (*db.Database, *model.Artifact) {
	t.Helper()
	s := db.NewSchema()
	if err := s.Add("parent", "a", "b"); err != nil {
		t.Fatal(err)
	}
	d := db.New(s)
	for i := 0; i < n-1; i++ {
		if err := d.Insert("parent", person(i), person(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	art := &model.Artifact{
		Version:     model.Version,
		Target:      "gp",
		TargetAttrs: []string{"x", "z"},
		Theory:      "gp(X,Z) :- parent(X,Y), parent(Y,Z).",
		Bias: "parent(person,person)\n" +
			"gp(person,person)\n" +
			"parent(+,-)\n" +
			"parent(-,+)\n",
		Bottom:            model.BottomConfig{Strategy: "Naive", Depth: 2, SampleSize: 20, MaxLiterals: 400, Seed: 1},
		Subsume:           model.SubsumeConfig{MaxNodes: 5000, Seed: 1},
		SchemaFingerprint: model.Fingerprint(s, "gp", []string{"x", "z"}),
	}
	return d, art
}

// chainExamples returns a mixed stream over the chain: grandparents
// (covered), parents and far hops (not), shuffled with repeats so the
// memo sees reuse, scans, and churn.
func chainExamples(t testing.TB, rng *rand.Rand, people, count int) []Example {
	t.Helper()
	out := make([]Example, count)
	for i := range out {
		a := rng.Intn(people - 4)
		hop := 1 + rng.Intn(4) // 1..4: parent, grandparent, and beyond
		e, err := model.ParseExample(fmt.Sprintf("gp(%s,%s)", person(a), person(a+hop)))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = e
	}
	return out
}

// TestCachedUncachedDifferential pins the serving correctness claim:
// memoization and memo rotation can shift COST but never a VERDICT. A
// model under a randomized, often starvation-level memo must agree
// bit-for-bit with the uncached reference engine on an identical
// randomized stream.
func TestCachedUncachedDifferential(t *testing.T) {
	const people = 40
	d, art := chainWorld(t, people)
	ref, err := Bind(context.Background(), "gp-ref", art, d, Options{Workers: 1, Uncached: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		// Memo capacities from constant churn to comfortable.
		opts := Options{
			Workers:   1 + rng.Intn(4),
			MemoLimit: 1 + rng.Intn(32),
		}
		cached, err := Bind(context.Background(), "gp", art, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		stream := chainExamples(t, rng, people, 300)
		want, err := ref.PredictBatch(context.Background(), stream)
		if err != nil {
			t.Fatal(err)
		}
		// Single-example batches interleaved with longer ones, so verdicts
		// memoized by one serve the other.
		got := make([]bool, len(stream))
		for start := 0; start < len(stream); {
			end := start + 50
			if start%3 == 0 {
				end = start + 1
			}
			if end > len(stream) {
				end = len(stream)
			}
			vs, err := cached.PredictBatch(context.Background(), stream[start:end])
			if err != nil {
				t.Fatal(err)
			}
			copy(got[start:], vs)
			start = end
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (memo=%d): %s: cached=%v uncached=%v",
					trial, opts.MemoLimit, stream[i].String(), got[i], want[i])
			}
		}
	}
}

// TestConcurrentMixedModelTraffic hammers two models with differently
// sized memos through the registry from many goroutines (run under -race in
// CI): every verdict must match the uncached reference regardless of
// interleaving, memo churn, or concurrent cold builds of one example.
func TestConcurrentMixedModelTraffic(t *testing.T) {
	const people = 40
	d, art := chainWorld(t, people)
	ref, err := Bind(context.Background(), "gp-ref", art, d, Options{Workers: 1, Uncached: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	names := []string{"tiny", "roomy"}
	for i, opts := range []Options{
		{Workers: 2, MemoLimit: 1}, // everything rebuilds
		{Workers: 2, MemoLimit: 0}, // everything sticks
	} {
		m, err := Bind(context.Background(), names[i], art, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		reg.Swap(m)
	}

	rng := rand.New(rand.NewSource(11))
	stream := chainExamples(t, rng, people, 120)
	want, err := ref.PredictBatch(context.Background(), stream)
	if err != nil {
		t.Fatal(err)
	}
	wantFor := make(map[string]bool, len(stream))
	for i, e := range stream {
		wantFor[e.String()] = want[i]
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for iter := 0; iter < 20; iter++ {
				name := names[rng.Intn(len(names))]
				start := rng.Intn(len(stream) - 10)
				batch := stream[start : start+1+rng.Intn(10)]
				got, _, err := reg.Predict(context.Background(), name, batch)
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d model %s: %w", g, name, err)
					return
				}
				for i, e := range batch {
					if got[i] != wantFor[e.String()] {
						errCh <- fmt.Errorf("goroutine %d model %s: %s: got %v want %v",
							g, name, e.String(), got[i], wantFor[e.String()])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
