package bottom

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"repro/internal/bias"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/logic"
	"repro/internal/subsume"
)

// inducedTask is one generated dataset at scale 0.3 (data seed 1) with
// its §3-induced bias compiled: the many-modes-per-relation shape the
// construction plan exists for.
type inducedTask struct {
	ds *datagen.Dataset
	c  *bias.Compiled
}

var (
	inducedOnce  sync.Once
	inducedTasks map[string]inducedTask
	inducedErr   error
)

func loadInducedTasks(t testing.TB) map[string]inducedTask {
	t.Helper()
	inducedOnce.Do(func() {
		inducedTasks = make(map[string]inducedTask)
		for _, name := range datagen.Names() {
			ds, err := datagen.Generate(name, datagen.Config{Scale: 0.3, Seed: 1})
			if err != nil {
				inducedErr = err
				return
			}
			pos := make([]db.Tuple, len(ds.Pos))
			for i, e := range ds.Pos {
				pos[i] = make(db.Tuple, len(e.Terms))
				for j, term := range e.Terms {
					pos[i][j] = term.Name
				}
			}
			res, err := bias.Induce(ds.DB, ds.Target, ds.TargetAttrs, pos, bias.InduceOptions{})
			if err != nil {
				inducedErr = fmt.Errorf("%s: %w", name, err)
				return
			}
			c, err := res.Bias.Compile(ds.DB.Schema(), ds.Target, ds.TargetArity())
			if err != nil {
				inducedErr = fmt.Errorf("%s: %w", name, err)
				return
			}
			inducedTasks[name] = inducedTask{ds: ds, c: c}
		}
	})
	if inducedErr != nil {
		t.Fatal(inducedErr)
	}
	return inducedTasks
}

// bcDigest hashes, in example order, the ground BC of every positive
// and negative example built by Ground with seed i+1 — the coverage
// engine's per-example provenance — plus every 7th example's
// variabilized BC, built on a state seeded alike.
func bcDigest(t *testing.T, task inducedTask, s Strategy) string {
	t.Helper()
	b := NewBuilder(task.ds.DB, task.c, Options{Strategy: s})
	h := sha256.New()
	examples := append(append([]logic.Literal(nil), task.ds.Pos...), task.ds.Neg...)
	for i, e := range examples {
		g, err := b.Ground(context.Background(), e, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(h, g.String())
		h.Write([]byte{0})
		if i%7 != 0 {
			continue
		}
		v, err := seeded(b, false, int64(i+1)).build(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(h, v.String())
		h.Write([]byte{1})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestBCDigests pins every bottom clause of the five generated datasets
// under the three samplers and the induced bias. A BC is a function of
// (options, example) — the RNG draw sequence and the literal order
// included — so any change to construction that is meant to be a pure
// speed-up must leave all fifteen digests as they are.
func TestBCDigests(t *testing.T) {
	want := map[string]string{
		"uw/Naive":        "5dd8eae01c64cc14",
		"uw/Random":       "904c9456a40763da",
		"uw/Stratified":   "8f1d9c982851f428",
		"imdb/Naive":      "c72964c11ece66f7",
		"imdb/Random":     "4cf4ea26ce476f8c",
		"imdb/Stratified": "3c1f23b72f7ddde9",
		"hiv/Naive":       "ed60036377934a3a",
		"hiv/Random":      "f83fe47c9490fe4f",
		"hiv/Stratified":  "4b82f5b03807b358",
		"flt/Naive":       "cf24323cf7f00a76",
		"flt/Random":      "ac531631b27695b8",
		"flt/Stratified":  "6d1c41291e90b042",
		"sys/Naive":       "68846bca96debcf2",
		"sys/Random":      "32298053934fafba",
		"sys/Stratified":  "0583ebea0d0f334c",
	}
	tasks := loadInducedTasks(t)
	for _, name := range datagen.Names() {
		for _, s := range []Strategy{Naive, Random, Stratified} {
			key := name + "/" + s.String()
			if got := bcDigest(t, tasks[name], s); got != want[key] {
				t.Errorf("%s: BC digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// groundBuilds returns a function that builds the next example's ground
// BC with its per-example seed, cycling through the task's examples.
func groundBuilds(tb testing.TB, task inducedTask, s Strategy) func() {
	b := NewBuilder(task.ds.DB, task.c, Options{Strategy: s})
	examples := append(append([]logic.Literal(nil), task.ds.Pos...), task.ds.Neg...)
	i := 0
	return func() {
		if _, err := b.Ground(context.Background(), examples[i%len(examples)], int64(i+1)); err != nil {
			tb.Fatal(err)
		}
		i++
	}
}

// TestGroundBuildAllocs bounds the allocations of one ground BC. On sys,
// whose one relation carries 80 induced modes, the builder notes a
// tuple's constants and emits its ground literal once, not once per
// mode, and reads compiled type sets and index postings in place. Every
// build takes its state from the plan's pool: the generator it seeds,
// the samplers' scratch (each random tree level's sample and value set,
// Olken's postings and bounds, the stratified selections, projections,
// joins and strata) and the maps and buffers the clause is assembled in
// all come back grown from earlier builds, so a random or stratified
// build allocates little beyond its clause, and a naive one makes no
// string per literal: it dedups by hash and cuts terms from an arena.
// Each ceiling is about 3x the count a build makes. Under the race
// detector sync.Pool sheds entries, so some builds make their state
// again: a random or stratified build is then held to raceCeiling
// instead, and a naive one, whose pooled maps and arena dominate its
// count, is not checked.
func TestGroundBuildAllocs(t *testing.T) {
	tasks := loadInducedTasks(t)
	for _, c := range []struct {
		dataset     string
		s           Strategy
		ceiling     float64
		raceCeiling float64 // 0: not checked under -race
	}{
		{"sys", Naive, 50, 0},
		{"sys", Random, 15, 150},
		{"sys", Stratified, 15, 225},
		{"uw", Naive, 40, 0},
		{"uw", Random, 15, 130},
		{"imdb", Naive, 50, 0},
		{"imdb", Random, 15, 130},
		{"imdb", Stratified, 15, 210},
		{"hiv", Naive, 45, 0},
	} {
		got := testing.AllocsPerRun(50, groundBuilds(t, tasks[c.dataset], c.s))
		t.Logf("%s/%v: %.0f allocations per ground BC", c.dataset, c.s, got)
		ceiling := c.ceiling
		if raceEnabled {
			ceiling = c.raceCeiling
		}
		if ceiling > 0 && got > ceiling {
			t.Errorf("%s/%v: %.0f allocations per ground BC, want <= %.0f", c.dataset, c.s, got, ceiling)
		}
	}
}

// TestReleaseClearsSamplerScratch: a released state keeps its sampler
// scratch's capacity but no tuple or postings in it, so a pooled state
// pins nothing of an older version of the database.
func TestReleaseClearsSamplerScratch(t *testing.T) {
	task := loadInducedTasks(t)["imdb"]
	for _, s := range []Strategy{Random, Stratified} {
		b := NewBuilder(task.ds.DB, task.c, Options{Strategy: s})
		for i, e := range task.ds.Pos[:min(5, len(task.ds.Pos))] {
			st := seeded(b, true, int64(i+1))
			if _, err := st.build(context.Background(), e); err != nil {
				t.Fatal(err)
			}
			room, held := 0, 0
			tuples := func(ts []db.Tuple) {
				room += cap(ts)
				for _, tu := range ts[:cap(ts)] {
					if tu != nil {
						held++
					}
				}
			}
			tuples(st.sample)
			tuples(st.strata)
			for _, l := range st.rnd {
				tuples(l.sample)
			}
			for _, l := range st.strat {
				tuples(l.ir)
			}
			room += cap(st.olkenRows)
			for _, r := range st.olkenRows[:cap(st.olkenRows)] {
				if r != nil {
					held++
				}
			}
			if room == 0 || held != 0 {
				t.Errorf("%v example %d: released scratch holds %d of %d entries, want 0 of more than 0", s, i, held, room)
			}
		}
	}
}

// TestCompileGroundSymbolOrder: compiling a fresh ground BC into an
// empty interner numbers its strings in head-then-body first-occurrence
// order — predicate, then terms, literal by literal — the order the
// builder interned them in when it kept a table. The engine's symbol
// order therefore does not depend on where interning happens.
func TestCompileGroundSymbolOrder(t *testing.T) {
	for name, task := range loadInducedTasks(t) {
		b := NewBuilder(task.ds.DB, task.c, Options{})
		for i, e := range task.ds.Pos[:min(5, len(task.ds.Pos))] {
			g, err := b.Ground(context.Background(), e, int64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			want := []string{""}
			seen := map[string]bool{"": true}
			note := func(s string) {
				if !seen[s] {
					seen[s] = true
					want = append(want, s)
				}
			}
			for _, l := range append([]logic.Literal{g.Head}, g.Body...) {
				note(l.Predicate)
				for _, term := range l.Terms {
					note(term.Name)
				}
			}
			in := logic.NewInterner()
			subsume.CompileGround(in, g)
			if got := in.Symbols(); !slices.Equal(got, want) {
				t.Fatalf("%s example %d: symbols %v, want %v", name, i, got, want)
			}
		}
	}
}

// BenchmarkConstructGround times one ground BC per iteration under each
// sampler on each generated dataset (run with -benchmem).
func BenchmarkConstructGround(b *testing.B) {
	tasks := loadInducedTasks(b)
	for _, s := range []Strategy{Naive, Random, Stratified} {
		for _, name := range datagen.Names() {
			b.Run(s.String()+"/"+name, func(b *testing.B) {
				build := groundBuilds(b, tasks[name], s)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					build()
				}
			})
		}
	}
}
