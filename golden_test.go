package autobias

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/*.pl with the currently learned theories")

// goldenCases pins one learning configuration per bundled dataset. The
// example counts are truncated so the whole sweep stays fast; what
// matters is that the configuration is fixed — any change to the learned
// clauses (sampling, search order, subsumption, reduction) shows up as a
// byte-level diff against the checked-in theory.
var goldenCases = []struct {
	dataset string
	method  Method
	scale   float64
	seed    int64
	maxPos  int
	maxNeg  int
}{
	{dataset: "uw", method: MethodAutoBias, scale: 0.1, seed: 1, maxPos: 12, maxNeg: 60},
	{dataset: "hiv", method: MethodAutoBias, scale: 0.1, seed: 1, maxPos: 12, maxNeg: 60},
	{dataset: "imdb", method: MethodAutoBias, scale: 0.1, seed: 1, maxPos: 12, maxNeg: 60},
	{dataset: "flt", method: MethodAutoBias, scale: 0.1, seed: 1, maxPos: 12, maxNeg: 60},
	{dataset: "sys", method: MethodAutoBias, scale: 0.1, seed: 1, maxPos: 12, maxNeg: 60},
	// The top-down search under the same covering loop (DESIGN.md §21).
	{dataset: "uw", method: MethodAleph, scale: 0.1, seed: 1, maxPos: 12, maxNeg: 60},
	{dataset: "hiv", method: MethodAleph, scale: 0.1, seed: 1, maxPos: 12, maxNeg: 60},
	{dataset: "imdb", method: MethodAleph, scale: 0.1, seed: 1, maxPos: 12, maxNeg: 60},
}

// TestGoldenTheories learns each pinned configuration sequentially (the
// differential harness separately guarantees worker counts don't matter)
// and compares the rendered theory byte-for-byte against
// testdata/golden/<dataset>.pl (<dataset>-aleph.pl for the FOIL search).
// Run with -update to accept new output — then review the .pl diff like
// any other code change.
func TestGoldenTheories(t *testing.T) {
	for _, tc := range goldenCases {
		name := tc.dataset
		if tc.method != MethodAutoBias {
			name += "-" + string(tc.method)
		}
		t.Run(name, func(t *testing.T) {
			ds, err := GenerateDataset(tc.dataset, tc.scale, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			task := TaskFromDataset(ds)
			if len(task.Pos) > tc.maxPos {
				task.Pos = task.Pos[:tc.maxPos]
			}
			if len(task.Neg) > tc.maxNeg {
				task.Neg = task.Neg[:tc.maxNeg]
			}
			res, err := Learn(task, Options{Method: tc.method, Seed: tc.seed, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.TimedOut || res.Cancelled {
				t.Fatalf("golden run degraded (timedOut=%v cancelled=%v); goldens must come from clean runs", res.TimedOut, res.Cancelled)
			}

			theory := strings.TrimRight(res.Definition.String(), "\n")
			if theory == "" {
				theory = "% (no definition learned)"
			}
			got := fmt.Sprintf("%% golden learned theory — regenerate with: go test -run TestGoldenTheories -update\n%%%% dataset=%s scale=%g seed=%d method=%s workers=1 pos=%d neg=%d\n%s\n",
				tc.dataset, tc.scale, tc.seed, tc.method, len(task.Pos), len(task.Neg), theory)

			path := filepath.Join("testdata", "golden", name+".pl")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the golden file)", err)
			}
			if got != string(want) {
				t.Errorf("learned theory diverges from %s.\nIf the change is intentional, rerun with -update and review the diff.\n--- want\n%s--- got\n%s",
					path, want, got)
			}
		})
	}
}
