package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/metrics"
	"repro/internal/model"
)

// flippedTheory classifies direct parents instead of grandparents, so
// v1 and v2 of a tenant give opposite verdicts on gp(p1,p2) — easy to
// observe which version served a request.
const flippedTheory = "gp(X,Z) :- parent(X,Z)."

// saveWorldTheory materializes the toy world with the given theory and
// returns the models directory (reusable across saves for reload tests).
func saveWorldTheory(t *testing.T, modelsDir, theory string) string {
	t.Helper()
	d, art := testWorld(t)
	if theory != "" {
		art.Theory = theory
	}
	dataDir := filepath.Join(modelsDir, "data")
	if err := d.WriteCSVDir(dataDir); err != nil {
		t.Fatal(err)
	}
	art.Data = model.DataRef{CSVDir: dataDir}
	if err := os.MkdirAll(modelsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := art.Save(filepath.Join(modelsDir, "gp.model")); err != nil {
		t.Fatal(err)
	}
	return modelsDir
}

func mustExamples(t *testing.T, strs ...string) []Example {
	t.Helper()
	out := make([]Example, len(strs))
	for i, s := range strs {
		e, err := model.ParseExample(s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = e
	}
	return out
}

// TestSwapZeroDowntime swaps a tenant's model under continuous traffic:
// no request may fail, every verdict must come from a coherent version
// (1 = grandparent theory, 2 = parent theory), and the old version must
// drain once its in-flight requests finish.
func TestSwapZeroDowntime(t *testing.T) {
	d, art := testWorld(t)
	mc := metrics.New()
	m1, err := Bind(context.Background(), "gp", art, d, Options{Workers: 1, Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add(m1)

	// gp(p1,p3) is a grandparent: v1 says true, v2 (parent theory) false.
	examples := mustExamples(t, "gp(p1,p3)")
	var sawV1, sawV2 atomic.Bool
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				verdicts, versions, err := reg.Predict(context.Background(), "gp", examples)
				if err != nil {
					errCh <- err
					return
				}
				switch versions[0] {
				case 1:
					sawV1.Store(true)
					if !verdicts[0] {
						errCh <- fmt.Errorf("v1 said gp(p1,p3)=false")
						return
					}
				case 2:
					sawV2.Store(true)
					if verdicts[0] {
						errCh <- fmt.Errorf("v2 said gp(p1,p3)=true")
						return
					}
				default:
					errCh <- fmt.Errorf("unexpected version %d", versions[0])
					return
				}
			}
		}()
	}

	// Let v1 serve a little, then swap in the flipped theory.
	time.Sleep(20 * time.Millisecond)
	art2 := *art
	art2.Theory = flippedTheory
	m2, err := Bind(context.Background(), "gp", &art2, d, Options{Workers: 1, Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	old := reg.Swap(m2)
	if old != m1 {
		t.Fatal("Swap returned the wrong old model")
	}
	if m2.Version() != 2 {
		t.Fatalf("new version %d, want 2", m2.Version())
	}

	// The old version must drain: it is retired, and once its in-flight
	// requests complete the drained channel closes.
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := old.Drain(drainCtx); err != nil {
		t.Fatalf("old version never drained: %v", err)
	}
	if !old.Retired() {
		t.Fatal("old version not marked retired")
	}

	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if !sawV1.Load() || !sawV2.Load() {
		t.Fatalf("traffic saw v1=%v v2=%v; want both", sawV1.Load(), sawV2.Load())
	}
	if mc.Counter(metrics.ServeModelSwaps) != 1 {
		t.Fatalf("swap counter = %d", mc.Counter(metrics.ServeModelSwaps))
	}
}

// TestLoadSheddingPerModel pins the shed contract: a model at its
// concurrency budget rejects with ErrOverloaded instead of queueing,
// and recovers as soon as a slot frees.
func TestLoadSheddingPerModel(t *testing.T) {
	d, art := testWorld(t)
	mc := metrics.New()
	m, err := Bind(context.Background(), "gp", art, d, Options{Workers: 1, ModelConcurrency: 1, Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add(m)
	examples := mustExamples(t, "gp(p1,p3)")

	// Occupy the model's only slot, as a long-running request would.
	if !m.tryAcquireSlot() {
		t.Fatal("could not take the free slot")
	}
	_, _, err = reg.Predict(context.Background(), "gp", examples)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("predict at budget returned %v, want ErrOverloaded", err)
	}
	if mc.Counter(metrics.ServeLoadShed) != 1 {
		t.Fatalf("load-shed counter = %d", mc.Counter(metrics.ServeLoadShed))
	}
	m.releaseSlot()
	if _, _, err := reg.Predict(context.Background(), "gp", examples); err != nil {
		t.Fatalf("predict after release: %v", err)
	}

	// Unknown tenants are a distinct failure.
	if _, _, err := reg.Predict(context.Background(), "nope", examples); !errors.Is(err, ErrNoModel) {
		t.Fatalf("unknown model returned %v, want ErrNoModel", err)
	}
}

// TestReloadDir covers the hot-reload sweep: unchanged checksums are
// skipped, changed artifacts swap with the old version draining, and a
// corrupt artifact keeps the previous version serving.
func TestReloadDir(t *testing.T) {
	modelsDir := saveWorldTheory(t, t.TempDir(), "")
	mc := metrics.New()
	opts := Options{Workers: 1, Metrics: mc}
	resolve := DefaultResolver("")
	reg, err := LoadDir(context.Background(), modelsDir, resolve, opts)
	if err != nil {
		t.Fatal(err)
	}
	examples := mustExamples(t, "gp(p1,p3)")

	// Reload with nothing changed: checksum match, no swap.
	rep, err := ReloadDir(context.Background(), reg, modelsDir, resolve, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unchanged) != 1 || len(rep.Swapped) != 0 || rep.Failed != nil {
		t.Fatalf("idle reload report %+v", rep)
	}

	// Rewrite the artifact with the flipped theory: reload must swap,
	// verdicts must flip, and the old version must drain.
	saveWorldTheory(t, modelsDir, flippedTheory)
	rep, err = ReloadDir(context.Background(), reg, modelsDir, resolve, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Swapped) != 1 || len(rep.Retired) != 1 {
		t.Fatalf("changed reload report %+v", rep)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rep.Retired[0].Drain(drainCtx); err != nil {
		t.Fatalf("retired model never drained: %v", err)
	}
	verdicts, versions, err := reg.Predict(context.Background(), "gp", examples)
	if err != nil {
		t.Fatal(err)
	}
	if verdicts[0] || versions[0] != 2 {
		t.Fatalf("after swap: verdict=%v version=%d, want false/2", verdicts[0], versions[0])
	}

	// Corrupt the artifact: reload reports the failure, version 2 keeps
	// serving.
	if err := os.WriteFile(filepath.Join(modelsDir, "gp.model"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = ReloadDir(context.Background(), reg, modelsDir, resolve, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 {
		t.Fatalf("corrupt reload report %+v", rep)
	}
	if _, versions, err = reg.Predict(context.Background(), "gp", examples); err != nil || versions[0] != 2 {
		t.Fatalf("corrupt reload disturbed serving: v=%d err=%v", versions[0], err)
	}
	if got := mc.Counter(metrics.ServeReloads); got != 3 {
		t.Fatalf("reload counter = %d, want 3", got)
	}
}

// TestHTTPTenancyBehaviors covers the new HTTP surface: 413 on oversize
// batches, 503 + Retry-After on per-model shed, and the admin reload
// endpoint (501 without a hook, report with one).
func TestHTTPTenancyBehaviors(t *testing.T) {
	d, art := testWorld(t)
	m, err := Bind(context.Background(), "gp", art, d, Options{Workers: 1, ModelConcurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add(m)
	srv := NewServer(reg, ServerOptions{MaxBatch: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body any) (*http.Response, []byte) {
		t.Helper()
		data, _ := json.Marshal(body)
		resp, err := ts.Client().Post(ts.URL+"/v1/models/gp/predict", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	var eb struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}

	// Batch over MaxBatch: 413 before any engine work.
	resp, body := post(map[string]any{"examples": []string{"gp(p1,p3)", "gp(p1,p4)", "gp(p2,p4)"}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch: %s: %s", resp.Status, body)
	}
	if json.Unmarshal(body, &eb); eb.Error.Code != httpx.ErrCodeBatchTooLarge {
		t.Fatalf("413 body %s", body)
	}

	// Model at its concurrency budget: 503, overloaded, Retry-After.
	if !m.tryAcquireSlot() {
		t.Fatal("slot unavailable")
	}
	resp, body = post(map[string]any{"examples": []string{"gp(p1,p3)"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed request: %s: %s", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 missing Retry-After")
	}
	if json.Unmarshal(body, &eb); eb.Error.Code != httpx.ErrCodeOverloaded {
		t.Fatalf("503 body %s", body)
	}
	m.releaseSlot()
	if resp, body = post(map[string]any{"examples": []string{"gp(p1,p3)"}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release predict: %s: %s", resp.Status, body)
	}

	// Admin reload: 501 without a hook.
	resp, err = ts.Client().Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without hook: %s", resp.Status)
	}

	// ...and the report with one.
	called := false
	srv2 := NewServer(reg, ServerOptions{Reload: func(context.Context) (*ReloadReport, error) {
		called = true
		return &ReloadReport{Unchanged: []string{"gp"}}, nil
	}})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, err = ts2.Client().Post(ts2.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep ReloadReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !called || resp.StatusCode != http.StatusOK || len(rep.Unchanged) != 1 {
		t.Fatalf("reload with hook: called=%v %s %+v", called, resp.Status, rep)
	}
}
