package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	autobias "repro"
	"repro/internal/db"
	"repro/internal/model"
	"repro/internal/serve"
)

// Sizes of live-loop; README.md says how they were chosen.
const (
	// liveCommits is K, the length of the commit chain. It is fixed, not
	// fitted to --seconds: a repair's cost depends on its place in the
	// chain, so a chain of another length is another workload.
	liveCommits = 6
	// liveBatch is how many new publication tuples one commit adds.
	liveBatch = 5
	// liveFresh is how many never-trained-on advisedBy pairs every model
	// version classifies.
	liveFresh = 600
	// liveWarmPasses is how often the same pairs are classified again.
	liveWarmPasses = 100
	// liveStreamScale sizes the bulk stream (imdb has about 40k tuples per
	// unit of scale); liveStreamBatch is the stream's commit size.
	liveStreamScale = 3.0
	liveStreamBatch = 128
	// liveCheckSample is how many served verdicts are compared with the
	// learner's own.
	liveCheckSample = 200
)

// liveInputs is what one set-up of live-loop produces.
type liveInputs struct {
	cold    *db.Database
	stream  []autobias.IngestMutation
	uw      *dataset
	batches []autobias.IngestBatch
}

func (r *run) liveSetup() (*liveInputs, error) {
	in := &liveInputs{}
	scale, commits := liveStreamScale, liveCommits
	if r.cfg.quick {
		scale, commits = 0.125, 1
	}
	// The stream's source is generated from --seed: ingest cost depends on
	// the sizes, which the seed leaves alone, not on the values.
	end := r.tr.begin("datagen.generate_s")
	src, err := autobias.GenerateDataset("imdb", scale, r.cfg.seed)
	end()
	if err != nil {
		return nil, err
	}
	in.cold = src.DB
	end = r.tr.begin("db.build_indexes_s")
	in.cold.BuildIndexes()
	end()
	// Round-robin across the relations, so every commit touches several
	// and every index grows throughout the stream.
	var rows [][]autobias.Tuple
	names := in.cold.Schema().Names()
	for _, name := range names {
		rows = append(rows, in.cold.Relation(name).Snapshot())
	}
	for i, left := 0, true; left; i++ {
		left = false
		for j, name := range names {
			if i < len(rows[j]) {
				left = true
				in.stream = append(in.stream, autobias.IngestMutation{Op: autobias.IngestInsert, Relation: name, Tuple: rows[j][i]})
			}
		}
	}

	if in.uw, err = r.loadDataset("uw", r.scale(), liveFresh); err != nil {
		return nil, err
	}
	// Each commit adds publications with fresh titles for one existing
	// person who is in a training example: new facts about a few entities,
	// which perturb the examples that reach them and leave the induced
	// bias alone, so the repair path handles them. The persons are spread
	// evenly over the sorted list, not drawn by --seed: a repair costs 0.3 s
	// or 2.6 s depending on whom it touches, so drawn targets would make
	// the chain another workload per seed.
	inExample := map[string]bool{}
	for _, e := range append(append([]autobias.Example(nil), in.uw.train.Pos...), in.uw.train.Neg...) {
		for _, t := range e.Terms {
			inExample[t.Name] = true
		}
	}
	var persons []string
	for _, p := range in.uw.ds.DB.Relation("publication").DistinctValues(1) {
		if inExample[p] {
			persons = append(persons, p)
		}
	}
	if len(persons) == 0 {
		return nil, errors.New("uw has no published person in a training example")
	}
	for c := 0; c < commits; c++ {
		person := persons[c*len(persons)/commits]
		var b autobias.IngestBatch
		for i := 0; i < liveBatch; i++ {
			b.Mutations = append(b.Mutations, autobias.IngestMutation{
				Op: autobias.IngestInsert, Relation: "publication",
				Tuple: []string{fmt.Sprintf("title_live_%d_%d", c, i), person},
			})
		}
		in.batches = append(in.batches, b)
	}
	return in, nil
}

// emptyIndexed returns an empty database over the stream's schema whose
// indexes are already built, so every insert maintains them.
func emptyIndexed(in *liveInputs) *db.Database {
	d := db.New(in.cold.Schema())
	d.BuildIndexes()
	return d
}

// streamInto replays the bulk stream into live through an ingestor and
// returns the number of commits and the tuples per second.
func (r *run) streamInto(in *liveInputs, live *db.Database, mc *autobias.MetricsCollector) (commits int, perS float64, err error) {
	st := autobias.NewIngestor(live, mc).NewStream(liveStreamBatch)
	t0 := time.Now()
	for _, m := range in.stream {
		if err = st.Add(r.ctx, m); err != nil {
			return 0, 0, err
		}
	}
	if err = st.Flush(r.ctx); err != nil {
		return 0, 0, err
	}
	return len(st.Commits), float64(len(in.stream)) / time.Since(t0).Seconds(), nil
}

// runLive is live-loop: cmd/ingest feeding cmd/serve, in one process. The
// chain: learn once, then for each commit apply it, repair the theory,
// save, load and bind the model, swap it in, classify the fresh pairs cold
// and then warm. The bulk phase: stream a database in through the
// ingestor, passCount times.
func (r *run) runLive() error {
	var in *liveInputs
	if err := r.timeSetup(func() (err error) {
		in, err = r.liveSetup()
		return err
	}); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(r.cfg.outDir, "live-")
	if !r.op("create a directory for the model artifact", err) {
		return err
	}
	defer os.RemoveAll(tmp)
	modelPath := filepath.Join(tmp, "uw.model")
	task, fresh := in.uw.train, in.uw.fresh
	r.layer["db.tuples"] = float64(task.DB.TotalTuples() + len(in.stream))

	opts := baseOptions()
	opts.Method = autobias.MethodAutoBias
	opts.PureGroundBCs = true
	var chainMC, serveMC *autobias.MetricsCollector
	initial := opts
	if r.cfg.trace {
		initial.Collector = autobias.NewMetricsCollector()
		chainMC, serveMC = autobias.NewMetricsCollector(), autobias.NewMetricsCollector()
		opts.Collector = chainMC
	}

	r.tr.on, r.tr.run = r.cfg.trace, "chain"
	end := r.tr.begin("learn.initial_s")
	prev, err := autobias.LearnCtx(r.ctx, task, initial)
	end()
	if err == nil && (prev.TimedOut || prev.Cancelled) {
		err = errors.New("learning was interrupted")
	}
	if !r.op("initial LearnCtx", err) {
		return err
	}

	ing := autobias.NewIngestor(task.DB, chainMC)
	reg := serve.NewRegistry()
	var repairS, toServing, warmRate []float64
	var chunkS [][]float64 // per commit, per batch of the cold pass
	var served []bool
	var predictions float64
	var chainS float64
	for i, batch := range in.batches {
		what := fmt.Sprintf("commit %d ", i)
		endCommit := r.tr.begin(fmt.Sprintf("commit %d", i))
		t0 := time.Now()
		end = r.tr.begin("ingest.apply_s")
		commit, err := ing.Apply(r.ctx, batch)
		end()
		if !r.op(what+"Apply", err) {
			return err
		}
		end = r.tr.begin("autobias.RepairCtx")
		rep, err := autobias.RepairCtx(r.ctx, prev, task, commit, opts)
		end()
		if err == nil && rep.FullRelearn {
			err = fmt.Errorf("repair fell back to a full re-learn (bias drift: %v)", rep.BiasDrift)
			r.layer["autobias.repair_full_relearns"]++
		}
		if !r.op(what+"RepairCtx", err) && rep == nil {
			return err
		}
		// The same repair once more, tracing off. It is the chain's only
		// repetition: the chain itself runs once per process, and a repair
		// of 0.3 to 1 s measured once is at the host's mercy. In a traced
		// run the repetition alone is the untraced time.
		again := opts
		again.Collector = nil
		r0 := time.Now()
		rep2, err := autobias.RepairCtx(r.ctx, prev, task, commit, again)
		repeatS := time.Since(r0).Seconds()
		repair := rep.Elapsed.Seconds()
		if r.op(what+"RepairCtx again", err) {
			r.check(what+"repair repeats", rep2.Result.Definition.String() == rep.Result.Definition.String(),
				"the same repair produced another theory:\n"+rep2.Result.Definition.String())
			if r.cfg.trace {
				repair = rep2.Elapsed.Seconds()
			} else {
				r.samples[what+"repair"] = []float64{rep.Elapsed.Seconds(), rep2.Elapsed.Seconds()}
				repair = median(r.samples[what+"repair"])
			}
		}
		repairS = append(repairS, repair)
		r.layer["autobias.repair_dirty_examples"] += float64(rep.DirtyExamples)
		r.layer["learn.carried_hits"] += float64(rep.CarriedHits)
		if rep.Unchanged {
			r.layer["autobias.repair_unchanged"]++
		}
		prev = rep.Result

		end = r.tr.begin("model.save_s")
		err = prev.SaveModel(modelPath, task, autobias.ModelDataRef{Dataset: "uw", Scale: r.scale(), Seed: dataSeed})
		end()
		if !r.op(what+"SaveModel", err) {
			return err
		}
		end = r.tr.begin("model.load_s")
		art, err := model.Load(modelPath)
		end()
		if !r.op(what+"model.Load", err) {
			return err
		}
		end = r.tr.begin("serve.bind_s")
		m, err := serve.Bind(r.ctx, "uw", art, task.DB, serve.Options{Metrics: serveMC})
		end()
		if !r.op(what+"serve.Bind", err) {
			return err
		}
		end = r.tr.begin("serve.swap_s")
		reg.Swap(m)
		end()

		// Every swap lands cold: the new version has replayed its training
		// bottom clauses but never seen these pairs. They arrive in batches
		// of predictChunk, each timed; the cold pass's time is the sum over
		// the batches of each one's median over the commits (see medianEach).
		end = r.tr.begin("serve.cold_pass_s")
		verdicts := make([]bool, 0, len(fresh))
		answeredBy := m.Version()
		var chunks []float64
		for from := 0; from < len(fresh) && err == nil; from += predictChunk {
			to := min(from+predictChunk, len(fresh))
			c0 := time.Now()
			var vs []bool
			var versions []int
			if vs, versions, err = reg.Predict(r.ctx, "uw", fresh[from:to]); err == nil {
				chunks = append(chunks, time.Since(c0).Seconds())
				verdicts = append(verdicts, vs...)
				if versions[0] != m.Version() {
					answeredBy = versions[0]
				}
			}
		}
		end()
		if !r.op(what+"cold Predict", err) {
			return err
		}
		toServing = append(toServing, time.Since(t0).Seconds()-repeatS)
		chunkS = append(chunkS, chunks)
		r.check(what+"served by the new version", answeredBy == m.Version(),
			fmt.Sprintf("answered by version %d, want %d", answeredBy, m.Version()))

		end = r.tr.begin("serve.warm_passes")
		w0 := time.Now()
		for p := 0; p < liveWarmPasses && err == nil; p++ {
			_, _, err = reg.Predict(r.ctx, "uw", fresh)
		}
		warmRate = append(warmRate, float64(liveWarmPasses*len(fresh))/time.Since(w0).Seconds())
		end()
		if !r.op(what+"warm Predict", err) {
			return err
		}
		endCommit()
		chainS += time.Since(t0).Seconds() - repeatS - rep.Elapsed.Seconds() + repair
		predictions += float64((1 + liveWarmPasses) * len(fresh))
		served = verdicts
		fmt.Printf("commit %d  repair %6.3f s (dirty %d, carried %d)  to serving %6.3f s  warm %9.0f/s\n",
			i, rep.Elapsed.Seconds(), rep.DirtyExamples, rep.CarriedHits, toServing[i], warmRate[i])
	}
	if info, err := os.Stat(modelPath); err == nil {
		r.layer["model.artifact_bytes"] = float64(info.Size())
	}

	// Scoring builds the held-out bottom clauses in the engine the next
	// repair would carry, so it waits until the chain has ended.
	end = r.tr.begin("eval.heldout_s")
	m, err := prev.Evaluate(in.uw.testPos, in.uw.testNeg)
	end()
	r.layer["eval.examples_scored"] = float64(len(in.uw.testPos) + len(in.uw.testNeg))
	if !r.op("Evaluate the repaired theory", err) {
		return err
	}
	agree := true
	for i := 0; i < len(fresh) && i < liveCheckSample && err == nil; i++ {
		var own bool
		own, err = prev.Covers(fresh[i])
		agree = agree && own == served[i]
	}
	r.check("served verdicts equal Result.Covers", err == nil && agree, "a served verdict differs from the learner's own")
	r.tr.on = false

	var coldDigest string
	var streamRate []float64
	var streamCommits int
	streamS, _ := r.passes(func(i int, traced bool) time.Duration {
		var mc *autobias.MetricsCollector
		if traced {
			mc = chainMC
		}
		defer r.tr.begin("ingest.stream")()
		t0 := time.Now()
		live := emptyIndexed(in)
		commits, perS, err := r.streamInto(in, live, mc)
		d := time.Since(t0)
		if !r.op("stream", err) {
			return d
		}
		streamCommits = commits
		// A smoke test's only pass may be the traced one.
		if !traced || r.cfg.quick {
			streamRate = append(streamRate, perS)
			r.samples["stream"] = append(r.samples["stream"], d.Seconds())
		}
		fmt.Printf("stream %d  %d tuples in %d commits  %8.0f tuples/s\n", i, len(in.stream), commits, perS)
		if coldDigest == "" {
			coldDigest = in.cold.IndexDigest()
		}
		r.check("stream digest", live.IndexDigest() == coldDigest, "the streamed database's index digest differs from the cold load's")
		return d
	})

	r.e2e["pass_s"] = chainS + median(streamS)
	r.e2e["learn_s"] = sum(repairS)
	r.e2e["predict_cold_per_s"] = float64(len(fresh)) / sum(medianEach(chunkS))
	r.e2e["f1_mean"] = m.F1
	// The issue's end-to-end metrics that only this workload has. In a
	// traced run the two serve ones come from traced executions: the chain
	// runs once.
	r.layer["autobias.repair_s"] = sum(repairS)
	r.layer["serve.commit_to_serving_s"] = median(toServing)
	r.layer["serve.predict_warm_per_s"] = median(warmRate)
	r.layer["ingest.stream_tuples_per_s"] = median(streamRate)

	// A from-scratch learn over the database the chain left behind must
	// find the theory the repairs arrived at.
	relearnOpts := opts
	relearnOpts.Collector = nil
	r.tr.on, r.tr.run = r.cfg.trace, "verify"
	end = r.tr.begin("learn.relearn_s")
	t0 := time.Now()
	relearn, err := autobias.LearnCtx(r.ctx, task, relearnOpts)
	relearnS := time.Since(t0).Seconds()
	end()
	if r.op("re-learn", err) {
		r.check("repaired theory equals re-learn", relearn.Definition.String() == prev.Definition.String(),
			"repaired:\n"+prev.Definition.String()+"\nre-learned:\n"+relearn.Definition.String())
	}
	if !r.cfg.trace {
		return nil
	}

	r.addCollector(initial.Collector.Snapshot(), true)
	chain := chainMC.Snapshot()
	r.layer["ind.refresh_s"] = float64(chain.Spans["ind.discover"].TotalNS) / 1e9
	delete(chain.Spans, "ind.discover")
	r.addCollector(chain, false)
	r.addCollector(serveMC.Snapshot(), false)
	r.layer["serve.memo_hit_ratio"] = r.layer["serve.memo_hits"] / predictions
	r.layer["ingest.stream_commits"] = float64(streamCommits)
	if s := sum(repairS); s > 0 {
		r.layer["learn.relearn_over_repair"] = relearnS / (s / float64(len(repairS)))
	}
	r.probeLive(in, modelPath, task, fresh)
	return nil
}

// probeLive is the traced run's extra cells of live-loop: the stream
// beside one reader, raw batch inserts without the ingest layer, and
// serving with caches smaller than the working set.
func (r *run) probeLive(in *liveInputs, modelPath string, task autobias.Task, fresh []autobias.Example) {
	r.tr.on, r.tr.run = true, "probes"
	defer func() { r.tr.on = false }()
	rs := rates{}

	// One closed-loop reader takes a snapshot of the relation the stream
	// is filling and looks one of its values up. Nothing end to end moves
	// with this yet; it is the cell a snapshot database will be judged on.
	var stop atomic.Bool
	var reads atomic.Int64
	done := make(chan struct{})
	live := emptyIndexed(in)
	rel := live.Relation(in.stream[0].Relation)
	go func() {
		defer close(done)
		for !stop.Load() {
			if ts := rel.Snapshot(); len(ts) > 0 {
				rel.Lookup(0, ts[len(ts)/2][0])
			}
			reads.Add(1)
		}
	}()
	end := r.tr.begin("ingest.stream_with_reader")
	t0 := time.Now()
	_, perS, err := r.streamInto(in, live, nil)
	d := time.Since(t0)
	stop.Store(true)
	<-done
	end()
	if r.op("stream beside a reader", err) {
		r.layer["ingest.stream_with_reader_tuples_per_s"] = perS
		r.layer["db.reads_during_ingest_per_s"] = float64(reads.Load()) / d.Seconds()
	}

	raw := emptyIndexed(in)
	end = r.tr.begin("db.InsertBatch")
	t0 = time.Now()
	for _, name := range in.cold.Schema().Names() {
		rows := in.cold.Relation(name).Snapshot()
		for i := 0; i < len(rows) && err == nil; i += liveStreamBatch {
			err = raw.Relation(name).InsertBatch(rows[i:min(i+liveStreamBatch, len(rows))])
		}
	}
	rs.add("db.insert_batch_tuples_per_s", len(in.stream), time.Since(t0))
	end()
	r.op("raw batch inserts", err)
	r.probeDB(rs, task.DB, rand.New(rand.NewSource(r.cfg.seed)))

	churnMC := autobias.NewMetricsCollector()
	art, err := model.Load(modelPath)
	if err == nil {
		var m *serve.Model
		if m, err = serve.Bind(r.ctx, "uw-churn", art, task.DB, serve.Options{CacheBytes: 4096, MemoLimit: 64, Metrics: churnMC}); err == nil {
			end = r.tr.begin("serve.churn")
			t0 = time.Now()
			for p := 0; p < 3 && err == nil; p++ {
				_, err = m.PredictBatch(r.ctx, fresh)
			}
			rs.add("serve.churn_predict_per_s", 3*len(fresh), time.Since(t0))
			end()
		}
	}
	r.op("serve with caches smaller than the working set", err)
	r.layer["serve.bc_evictions"] = float64(churnMC.Snapshot().Gauges["serve.bc_evictions"])
	r.storeRates(rs)
}
