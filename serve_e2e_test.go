package autobias

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestServeRoundTrip is the serving acceptance property end to end:
// learn a theory, save it with -save-model's machinery, load it into the
// serving stack, and verify that batch-classifying examples reproduces
// the learner's own coverage verdicts bit for bit — at every worker
// count. Coverage verdicts depend on sampled ground bottom clauses, and
// a ground BC is a function of (options, example) alone (DESIGN.md §19),
// so the guarantee holds for everything a build-log replay could not
// promise: learner verdicts taken AFTER the artifact was saved, held-out
// examples the run never touched, and an artifact saved from a run cut
// short by Options.Timeout.
func TestServeRoundTrip(t *testing.T) {
	ds, err := GenerateDataset("uw", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	task := TaskFromDataset(ds)
	if len(task.Pos) < 24 || len(task.Neg) < 80 {
		t.Fatalf("uw@0.1 has %d+/%d-; the held-out leg needs more", len(task.Pos), len(task.Neg))
	}
	heldOut := append(append([]Example(nil), task.Pos[12:24]...), task.Neg[60:80]...)
	task.Pos, task.Neg = task.Pos[:12], task.Neg[:60]
	// SampleSize 5: on a database this small the default 20 rarely has
	// anything to sample away, and every provenance would build the same
	// BCs.
	opts := Options{Method: MethodAutoBias, Seed: 1, Workers: 2, SampleSize: 5}
	res, err := Learn(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Definition.Len() == 0 {
		t.Fatal("learner produced no clauses; the round-trip test would be vacuous")
	}

	// A second run of the same task, interrupted by its Timeout somewhere
	// after its first clause: the ladder looks for a budget that lands
	// there on this host, and settles for wherever the last rung stopped.
	var cut *Result
	for _, frac := range []float64{0.75, 0.6, 0.9, 0.45} {
		cutOpts := opts
		cutOpts.Timeout = time.Duration(frac * float64(res.Elapsed))
		if cut, err = Learn(task, cutOpts); err != nil {
			t.Fatal(err)
		}
		if cut.TimedOut && cut.Definition.Len() > 0 {
			break
		}
	}
	t.Logf("interrupted run: timedOut=%v, %d of %d clauses", cut.TimedOut, cut.Definition.Len(), res.Definition.Len())

	// Both artifacts are saved BEFORE the learner answers a single query.
	dir := t.TempDir()
	runs := map[string]*Result{"uw": res, "uwcut": cut}
	for name, r := range runs {
		if err := r.SaveModel(filepath.Join(dir, name+".model"), task, ModelDataRef{Dataset: "uw", Scale: 0.1, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	examples := append(append(append([]Example(nil), task.Pos...), task.Neg...), heldOut...)
	wants := make(map[string][]bool, len(runs))
	for name, r := range runs {
		wants[name] = make([]bool, len(examples))
		for i, e := range examples {
			if wants[name][i], err = r.Covers(e); err != nil {
				t.Fatalf("%s: learner verdict for %v: %v", name, e, err)
			}
		}
	}
	want := wants["uw"]

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg, err := serve.LoadDir(context.Background(), dir, serve.DefaultResolver(""), serve.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			// Batch path: bit-for-bit agreement with each learner.
			for name, want := range wants {
				m, ok := reg.Get(name)
				if !ok {
					t.Fatalf("model %s not in registry", name)
				}
				got, err := m.PredictBatch(context.Background(), examples)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s %v: served verdict %v, learner said %v", name, examples[i], got[i], want[i])
					}
				}
			}
			m, _ := reg.Get("uw")

			// Single-example batches agree too.
			for _, i := range []int{0, len(task.Pos), len(examples) - 1} {
				ok, err := m.PredictBatch(context.Background(), examples[i:i+1])
				if err != nil {
					t.Fatal(err)
				}
				if ok[0] != want[i] {
					t.Errorf("point %v: served %v, learner said %v", examples[i], ok[0], want[i])
				}
			}

			// And over HTTP, through the real handler stack.
			srv := serve.NewServer(reg, serve.ServerOptions{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			reqBody := struct {
				Examples []string `json:"examples"`
			}{Examples: make([]string, len(examples))}
			for i, e := range examples {
				reqBody.Examples[i] = e.String()
			}
			data, err := json.Marshal(reqBody)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/models/uw/predict", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("predict over HTTP: %s", resp.Status)
			}
			var pr struct {
				Predictions []struct {
					Input   string `json:"input"`
					Covered bool   `json:"covered"`
				} `json:"predictions"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				t.Fatal(err)
			}
			if len(pr.Predictions) != len(examples) {
				t.Fatalf("HTTP returned %d predictions, want %d", len(pr.Predictions), len(examples))
			}
			for i, p := range pr.Predictions {
				if p.Covered != want[i] {
					t.Errorf("HTTP %s: served %v, learner said %v", p.Input, p.Covered, want[i])
				}
			}
		})
	}
}

// TestServeArtifactFromResult checks BuildArtifact's own guarantees:
// effective options are captured (not the zero-valued facade inputs) and
// the artifact seals and validates.
func TestServeArtifactFromResult(t *testing.T) {
	ds, err := GenerateDataset("uw", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	task := TaskFromDataset(ds)
	if len(task.Pos) > 6 {
		task.Pos = task.Pos[:6]
	}
	if len(task.Neg) > 20 {
		task.Neg = task.Neg[:20]
	}
	res, err := Learn(task, Options{Method: MethodAutoBias, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	art, err := res.BuildArtifact(task, ModelDataRef{Dataset: "uw", Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if art.Checksum == "" {
		t.Fatal("BuildArtifact returned an unsealed artifact")
	}
	// The facade left these zero; the artifact must hold the values the
	// engine actually ran with.
	if art.Subsume.MaxNodes <= 0 {
		t.Fatalf("effective subsume MaxNodes not captured: %+v", art.Subsume)
	}
	if art.Bottom.Depth <= 0 || art.Bottom.SampleSize <= 0 {
		t.Fatalf("effective bottom options not captured: %+v", art.Bottom)
	}
	if art.Degraded {
		t.Fatal("clean run marked degraded")
	}
}
