package query

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/logic"
	"repro/internal/subsume"
)

// differentialScales are the dataset scales the differential runs at;
// the slow build tag adds the larger ones.
var differentialScales = []float64{0.1}

// TestAgreesWithReference holds the engine to the reference evaluator
// on every positive and negative example of every golden theory's
// dataset (seed 1), clause by clause: the engine tests the clause
// θ-reduced as EvaluateExact reduces it, the reference the clause as
// learned. Any disagreement fails, and so does any test the engine
// leaves undecided; a test the reference leaves undecided is logged.
func TestAgreesWithReference(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.pl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden theories: %v", err)
	}
	header := regexp.MustCompile(`(?m)^%% dataset=(\S+) `)
	for _, scale := range differentialScales {
		data := map[string]*datagen.Dataset{}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			def, err := logic.ParseDefinition(string(src))
			m := header.FindSubmatch(src)
			if err != nil || m == nil {
				t.Fatalf("%s: %v", path, err)
			}
			name := string(m[1])
			if data[name] == nil {
				if data[name], err = datagen.Generate(name, datagen.Config{Scale: scale, Seed: 1}); err != nil {
					t.Fatal(err)
				}
			}
			ds := data[name]
			examples := append(append([]logic.Literal(nil), ds.Pos...), ds.Neg...)
			ref := &reference{db: ds.DB, opts: Options{MaxNodes: 1000000}}
			t0 := time.Now()
			eng := New(ds.DB, Options{})
			refTime, engTime := time.Duration(0), time.Since(t0)
			checks, disagree, refExhausted := 0, 0, 0
			for ci, c := range def.Clauses {
				t0 = time.Now()
				reduced := subsume.Reduce(c, subsume.Options{})
				engTime += time.Since(t0)
				for _, e := range examples {
					t0 = time.Now()
					want, refErr := ref.Covers(c, e)
					t1 := time.Now()
					got, err := eng.Covers(reduced, e)
					refTime, engTime = refTime+t1.Sub(t0), engTime+time.Since(t1)
					checks++
					if err != nil {
						t.Errorf("%s scale %g clause %d on %v: %v", filepath.Base(path), scale, ci+1, e, err)
						continue
					}
					switch {
					case refErr == ErrBudget:
						refExhausted++
					case refErr != nil:
						t.Fatal(refErr)
					case got != want:
						disagree++
						t.Errorf("%s scale %g clause %d on %v: engine %v, reference %v",
							filepath.Base(path), scale, ci+1, e, got, want)
					}
				}
			}
			t.Logf("%-14s scale %-3g %4d checks, %d disagreements, %d undecided by the reference; reference %v, engine %v (compile and reduction included)",
				filepath.Base(path), scale, checks, disagree, refExhausted, refTime.Round(time.Millisecond), engTime.Round(time.Millisecond))
		}
	}
}
