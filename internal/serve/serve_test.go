package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/faultpoint"
	"repro/internal/httpx"
	"repro/internal/model"
	"repro/internal/report"
)

// testWorld is the grandparent toy domain: a parent chain p1→p2→p3→p4
// plus an unrelated pair q1→q2, with the textbook theory
// gp(X,Z) :- parent(X,Y), parent(Y,Z).
func testWorld(t *testing.T) (*db.Database, *model.Artifact) {
	t.Helper()
	s := db.NewSchema()
	if err := s.Add("parent", "a", "b"); err != nil {
		t.Fatal(err)
	}
	d := db.New(s)
	for _, pair := range [][2]string{{"p1", "p2"}, {"p2", "p3"}, {"p3", "p4"}, {"q1", "q2"}} {
		if err := d.Insert("parent", pair[0], pair[1]); err != nil {
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

// verdictCases are (example, want-covered) pairs for the toy theory.
var verdictCases = []struct {
	example string
	covered bool
}{
	{"gp(p1,p3)", true},
	{"gp(p2,p4)", true},
	{"gp(p1,p4)", false}, // great-grandparent: needs two hops
	{"gp(q1,q2)", false}, // parent, not grandparent
	{"gp(p1,q2)", false},
}

func TestBindAndPredict(t *testing.T) {
	d, art := testWorld(t)
	m, err := Bind(context.Background(), "gp", art, d, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range verdictCases {
		e, err := model.ParseExample(tc.example)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.PredictBatch(context.Background(), []Example{e})
		if err != nil {
			t.Fatalf("%s: %v", tc.example, err)
		}
		if got[0] != tc.covered {
			t.Errorf("%s: covered=%v, want %v", tc.example, got[0], tc.covered)
		}
	}
	if ok, err := m.PredictBatch(context.Background(), []Example{m.TupleExample([]string{"p1", "p3"})}); err != nil || !ok[0] {
		t.Fatalf("PredictBatch(p1,p3) = %v, %v", ok, err)
	}
}

// TestPredictIsolatesBuildPanic: a panic while building one example's
// ground BC fails that example, not the batch: it is "not covered", one
// PanicRecovered names it, and the rest of the batch is served.
func TestPredictIsolatesBuildPanic(t *testing.T) {
	d, art := testWorld(t)
	m, err := Bind(context.Background(), "gp", art, d, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := report.New()
	m.engine.SetReport(rep)
	faultpoint.Enable("bottom.construct:gp(p2,p4)", faultpoint.Fault{Panic: "injected build panic"})
	defer faultpoint.Reset()
	var batch []Example
	for _, s := range []string{"gp(p1,p3)", "gp(p2,p4)", "gp(p1,p4)"} {
		e, err := model.ParseExample(s)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, e)
	}
	got, err := m.PredictBatch(context.Background(), batch)
	if err != nil {
		t.Fatalf("one example's build panic failed the batch: %v", err)
	}
	if want := []bool{true, false, false}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("verdicts %v, want %v", got, want)
	}
	evs := rep.Events()
	if rep.Count(report.PanicRecovered) != 1 || len(evs) != 1 || evs[0].Example != "gp(p2,p4)" || evs[0].Site != "bottom.construct" {
		t.Fatalf("want one PanicRecovered at bottom.construct naming gp(p2,p4), got %+v", evs)
	}
}

func TestBindRejectsStaleSchema(t *testing.T) {
	d, art := testWorld(t)
	// The database grew a relation since training: the fingerprint in the
	// artifact no longer matches and binding must fail loudly.
	art.SchemaFingerprint = "0000000000000000"
	_, err := Bind(context.Background(), "gp", art, d, Options{})
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale artifact bound: err=%v", err)
	}
}

// TestPredictValidation: a predict is validated against the version
// that serves it, and a wrong predicate or arity fails with
// ErrBadExample, which HTTP maps to 400.
func TestPredictValidation(t *testing.T) {
	d, art := testWorld(t)
	m, err := Bind(context.Background(), "gp", art, d, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Swap(m)
	for _, bad := range []string{"parent(p1,p2)", "gp(p1)", "gp(p1,p2,p3)"} {
		e, err := model.ParseExample(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := reg.Predict(context.Background(), "gp", []Example{e}); !errors.Is(err, ErrBadExample) {
			t.Errorf("%s: predict returned %v, want ErrBadExample", bad, err)
		}
	}
	if _, err := model.ParseExample("gp(X,p2)"); err == nil {
		t.Error("non-ground example parsed")
	}
}

func TestPredictBatchWorkerInvariance(t *testing.T) {
	examples := make([]Example, len(verdictCases))
	want := make([]bool, len(verdictCases))
	for i, tc := range verdictCases {
		e, err := model.ParseExample(tc.example)
		if err != nil {
			t.Fatal(err)
		}
		examples[i], want[i] = e, tc.covered
	}
	for _, workers := range []int{1, 4, 8} {
		d, art := testWorld(t)
		m, err := Bind(context.Background(), "gp", art, d, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.PredictBatch(context.Background(), examples)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: %s covered=%v, want %v", workers, verdictCases[i].example, got[i], want[i])
			}
		}
	}
}

func TestEvictionKeepsVerdicts(t *testing.T) {
	d, art := testWorld(t)
	// A 1-entry memo churns constantly: every prediction pays the full
	// cold build.
	m, err := Bind(context.Background(), "gp", art, d, Options{Workers: 2, MemoLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	examples := make([]Example, len(verdictCases))
	for i, tc := range verdictCases {
		examples[i], _ = model.ParseExample(tc.example)
	}
	first, err := m.PredictBatch(context.Background(), examples)
	if err != nil {
		t.Fatal(err)
	}
	// Cold re-prediction rebuilds identical BCs (derived seeds) and must
	// reproduce every verdict.
	second, err := m.PredictBatch(context.Background(), examples)
	if err != nil {
		t.Fatal(err)
	}
	// The serving verb keeps no ground entry: the memo is the model's one
	// cache.
	if n := m.engine.CachedBCs(); n != 0 {
		t.Fatalf("serving engine holds %d ground BCs after two passes, want 0", n)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("%s: verdict changed across eviction: %v then %v", verdictCases[i].example, first[i], second[i])
		}
	}
}

// TestColdPredictionsKeepInternTable: a cold prediction keeps nothing
// in the engine, its intern table included. A served example's
// constants that no body literal holds are compared by name, never
// interned, so 5,000 predictions of unseen entities leave the table the
// size the first one left it.
func TestColdPredictionsKeepInternTable(t *testing.T) {
	d, art := testWorld(t)
	m, err := Bind(context.Background(), "gp", art, d, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	size := 0
	for i := 0; i < 5000; i++ {
		e, err := model.ParseExample(fmt.Sprintf("gp(x%d,y%d)", i, i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.PredictBatch(context.Background(), []Example{e})
		if err != nil || got[0] {
			t.Fatalf("%v: %v, %v; want not covered", e, got, err)
		}
		if i == 0 {
			size = m.engine.Interner().Len()
		} else if n := m.engine.Interner().Len(); n != size {
			t.Fatalf("prediction %d grew the intern table from %d to %d symbols", i, size, n)
		}
	}
}

// saveWorld materializes the toy world to disk: CSV data plus a sealed
// artifact referencing it, ready for LoadDir.
func saveWorld(t *testing.T) (modelsDir string) {
	t.Helper()
	d, art := testWorld(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	if err := d.WriteCSVDir(dataDir); err != nil {
		t.Fatal(err)
	}
	art.Data = model.DataRef{CSVDir: dataDir}
	modelsDir = filepath.Join(t.TempDir(), "models")
	if err := os.MkdirAll(modelsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := art.Save(filepath.Join(modelsDir, "gp.model")); err != nil {
		t.Fatal(err)
	}
	return modelsDir
}

func TestLoadDir(t *testing.T) {
	modelsDir := saveWorld(t)
	reg, err := LoadDir(context.Background(), modelsDir, DefaultResolver(""), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Names(); len(got) != 1 || got[0] != "gp" {
		t.Fatalf("registry names %v", got)
	}
	m, ok := reg.Get("gp")
	if !ok {
		t.Fatal("model gp missing")
	}
	if ok, err := m.PredictBatch(context.Background(), []Example{m.TupleExample([]string{"p1", "p3"})}); err != nil || !ok[0] {
		t.Fatalf("loaded model PredictBatch = %v, %v", ok, err)
	}
	if _, err := LoadDir(context.Background(), t.TempDir(), DefaultResolver(""), Options{}); err == nil {
		t.Fatal("LoadDir on empty dir succeeded")
	}
}

// TestDefaultResolverNormalizesGeneratedRefs: artifacts whose refs
// differ only by spelling a generator default ({hiv, scale 0} from one
// binary, {hiv, scale 1} from another) name one database, and serve
// builds it once; a different seed is a different database.
func TestDefaultResolverNormalizesGeneratedRefs(t *testing.T) {
	resolve := DefaultResolver("")
	first, err := resolve(model.DataRef{Dataset: "hiv", Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []model.DataRef{
		{Dataset: "hiv", Scale: 0, Seed: 1},
		{Dataset: "hiv", Scale: 1, Seed: 0},
		{Dataset: "hiv", Scale: -1},
	} {
		d, err := resolve(ref)
		if err != nil {
			t.Fatal(err)
		}
		if d != first {
			t.Errorf("%+v resolved to a second database; it names the same generated data as {hiv 1 1}", ref)
		}
	}
	other, err := resolve(model.DataRef{Dataset: "hiv", Scale: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if other == first {
		t.Error("seed 2 resolved to seed 1's database")
	}
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPEndpoints(t *testing.T) {
	modelsDir := saveWorld(t)
	reg, err := LoadDir(context.Background(), modelsDir, DefaultResolver(""), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Health and model listing.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}
	resp.Body.Close()
	resp, err = ts.Client().Get(ts.URL + "/v1/models/gp")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("model info: %v %v", resp.Status, err)
	}
	var info struct {
		Name    string `json:"name"`
		Clauses int    `json:"clauses"`
		Theory  string `json:"theory"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Name != "gp" || info.Clauses != 1 || !strings.Contains(info.Theory, "parent(X,Y)") {
		t.Fatalf("model info %+v", info)
	}

	// Point + batch prediction: tuples then examples, order preserved.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/models/gp/predict", map[string]any{
		"tuples":   [][]string{{"p1", "p3"}},
		"examples": []string{"gp(q1,q2)", "gp(p2,p4)"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %s: %s", resp.Status, body)
	}
	var pr struct {
		Model       string `json:"model"`
		Predictions []struct {
			Input   string `json:"input"`
			Covered bool   `json:"covered"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	wantCovered := []bool{true, false, true}
	if pr.Model != "gp" || len(pr.Predictions) != 3 {
		t.Fatalf("predict response %+v", pr)
	}
	for i, p := range pr.Predictions {
		if p.Covered != wantCovered[i] {
			t.Errorf("prediction %d (%s): covered=%v, want %v", i, p.Input, p.Covered, wantCovered[i])
		}
	}

	// Error paths: unknown model, empty body, bad example. Errors carry
	// the structured {"error":{"code","message"}} envelope.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/models/nope/predict", map[string]any{"examples": []string{"gp(a,b)"}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: %s", resp.Status)
	}
	var eb struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body not structured JSON: %s", body)
	}
	if eb.Error.Code != httpx.ErrCodeModelNotFound || eb.Error.Message == "" {
		t.Fatalf("404 error body %+v", eb)
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/models/gp/predict", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %s", resp.Status)
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != httpx.ErrCodeBadRequest {
		t.Fatalf("400 error body %s (err %v)", body, err)
	}
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/models/gp/predict", map[string]any{"examples": []string{"gp(X,b)"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-ground example: %s", resp.Status)
	}
	// A well-formed literal for the wrong predicate is still a client
	// error — ErrBadExample, a 400, not a 500.
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/models/gp/predict", map[string]any{"examples": []string{"nope(a,b)"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-predicate example: %s", resp.Status)
	}

	// Metrics endpoint serves a JSON snapshot (empty collector is fine).
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v %v", resp.Status, err)
	}
	resp.Body.Close()
}

func TestServeGracefulDrain(t *testing.T) {
	modelsDir := saveWorld(t)
	reg, err := LoadDir(context.Background(), modelsDir, DefaultResolver(""), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, ServerOptions{DrainTimeout: 5 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	// The server must answer while running...
	url := fmt.Sprintf("http://%s/healthz", ln.Addr())
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(url)
		if err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}

	// ...and drain cleanly on cancellation.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
}
