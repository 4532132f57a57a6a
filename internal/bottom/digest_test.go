package bottom

import (
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
// and negative example built on CloneSeeded(i+1) — the coverage engine's
// per-example provenance — plus every 7th example's variabilized BC.
func bcDigest(t *testing.T, task inducedTask, s Strategy) string {
	t.Helper()
	b := NewBuilder(task.ds.DB, task.c, Options{Strategy: s})
	h := sha256.New()
	examples := append(append([]logic.Literal(nil), task.ds.Pos...), task.ds.Neg...)
	for i, e := range examples {
		g, err := b.CloneSeeded(int64(i + 1)).ConstructGround(e)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(h, g.String())
		h.Write([]byte{0})
		if i%7 != 0 {
			continue
		}
		v, err := b.CloneSeeded(int64(i + 1)).Construct(e)
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
// BC on its per-example clone, cycling through the task's examples.
func groundBuilds(tb testing.TB, task inducedTask, s Strategy) func() {
	b := NewBuilder(task.ds.DB, task.c, Options{Strategy: s})
	examples := append(append([]logic.Literal(nil), task.ds.Pos...), task.ds.Neg...)
	i := 0
	return func() {
		if _, err := b.CloneSeeded(int64(i + 1)).ConstructGround(examples[i%len(examples)]); err != nil {
			tb.Fatal(err)
		}
		i++
	}
}

// TestGroundBuildAllocs bounds the allocations of one ground BC. On sys,
// whose one relation carries 80 induced modes, the builder notes a
// tuple's constants and emits its ground literal once, not once per
// mode, and reads compiled type sets and index postings in place. A
// random build also probes each frontier value's frequency once per
// Olken draw set, keeps each tree level's sample and value set in the
// clone's scratch, and, like a stratified one, notes no frontier and
// collects its tuples in the pooled state's buffer. Every build's clone
// holds its random generator, so seeding allocates nothing. A
// stratified build selects, projects, joins and lays out its strata in
// the clone's scratch slices, with no map and no copy per recursion
// step. A naive build on sys, uw, imdb or hiv makes no string per
// literal: it dedups by hash, cuts terms from an arena, and reuses
// pooled maps across builds (their ceilings hold without the race
// detector, under which sync.Pool sheds entries and the maps are made
// again). Each ceiling is about 3x the count a build makes.
func TestGroundBuildAllocs(t *testing.T) {
	tasks := loadInducedTasks(t)
	for _, c := range []struct {
		dataset string
		s       Strategy
		ceiling float64
		pooled  bool
	}{
		{"sys", Naive, 125, true},
		{"sys", Random, 150, false},
		{"sys", Stratified, 225, false},
		{"uw", Naive, 100, true},
		{"uw", Random, 130, false},
		{"imdb", Naive, 100, true},
		{"imdb", Random, 130, false},
		{"imdb", Stratified, 210, false},
		{"hiv", Naive, 100, true},
	} {
		got := testing.AllocsPerRun(50, groundBuilds(t, tasks[c.dataset], c.s))
		t.Logf("%s/%v: %.0f allocations per ground BC", c.dataset, c.s, got)
		if got > c.ceiling && !(c.pooled && raceEnabled) {
			t.Errorf("%s/%v: %.0f allocations per ground BC, want <= %.0f", c.dataset, c.s, got, c.ceiling)
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
			g, err := b.CloneSeeded(int64(i + 1)).ConstructGround(e)
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
