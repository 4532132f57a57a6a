package main

import (
	"math/rand"
	"strings"
	"time"

	autobias "repro"
	"repro/internal/bottom"
	"repro/internal/db"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/subsume"
)

// Layer probes: direct calls into one module's public functions over the
// workload's own inputs, run after the passes of a traced run. They give
// each layer a time of its own, which the program's count-and-total spans
// cannot.

// rates pools the operations and seconds of throughput probes by the
// per-layer metric they feed; several datasets pool into one rate.
type rates map[string]*struct{ ops, secs float64 }

func (rs rates) add(name string, ops int, d time.Duration) {
	if rs[name] == nil {
		rs[name] = &struct{ ops, secs float64 }{}
	}
	rs[name].ops += float64(ops)
	rs[name].secs += d.Seconds()
}

func (r *run) storeRates(rs rates) {
	for name, x := range rs {
		if x.secs > 0 {
			r.layer[name] = x.ops / x.secs
		}
	}
}

// probeCells runs the database probes on every dataset and the bottom,
// subsume, learn and query probes on every cell.
func (r *run) probeCells(cells []cell, outs []outcome) {
	r.tr.on, r.tr.run = true, "probes"
	defer func() { r.tr.on = false }()
	rs := rates{}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	seen := map[*dataset]bool{}
	for i, c := range cells {
		if !seen[c.data] {
			seen[c.data] = true
			end := r.tr.begin("probe db " + c.data.name)
			r.probeDB(rs, c.data.ds.DB, rng)
			end()
		}
		if outs[i].res != nil {
			end := r.tr.begin("probe " + c.label())
			r.op("probe "+c.label(), r.probeCell(rs, c, outs[i].res))
			end()
		}
	}
	r.storeRates(rs)
}

const (
	dbProbeKeys        = 2000
	exactProbePerClass = 4
)

// probeDB times the read primitives bottom-clause construction uses:
// index lookups (every strategy), and value-set selection and frequency
// statistics (random and stratified sampling). The keys are drawn by
// --seed from each column's own values.
func (r *run) probeDB(rs rates, d *db.Database, rng *rand.Rand) {
	for _, rn := range d.Schema().Names() {
		rel := d.Relation(rn)
		if rel.Len() == 0 {
			continue
		}
		for a := range rel.Schema.Attributes {
			vals := rel.DistinctValues(a)
			keys := make([]string, dbProbeKeys)
			for i := range keys {
				keys[i] = vals[rng.Intn(len(vals))]
			}
			sets := make([]map[string]bool, dbProbeKeys/8)
			for i := range sets {
				sets[i] = map[string]bool{}
				for _, k := range keys[i*8 : i*8+8] {
					sets[i][k] = true
				}
			}
			sink := 0
			end := r.tr.begin("db.Lookup")
			t0 := time.Now()
			for _, k := range keys {
				sink += len(rel.Lookup(a, k))
			}
			rs.add("db.lookup_per_s", len(keys), time.Since(t0))
			end()
			end = r.tr.begin("db.SelectIn")
			t0 = time.Now()
			for _, s := range sets {
				sink += len(rel.SelectIn(a, s))
			}
			rs.add("db.select_in_per_s", len(sets), time.Since(t0))
			end()
			end = r.tr.begin("db.Frequency")
			t0 = time.Now()
			for _, k := range keys {
				sink += rel.Frequency(a, k) + rel.MaxFrequency(a)
			}
			rs.add("db.frequency_per_s", len(keys), time.Since(t0))
			end()
			_ = sink
		}
	}
}

// probeCell rebuilds, outside the learner, the work a cell's coverage
// tests are made of: a fresh builder constructs the ground bottom clause
// of every training example, each is compiled, every learned clause is
// checked against every compiled ground, one armg step generalises the
// first positive's bottom clause against the second's ground, and a few
// held-out examples are scored a second time with exact query semantics.
func (r *run) probeCell(rs rates, c cell, res *autobias.Result) error {
	task := c.data.train
	compiled, err := res.Bias.Compile(task.DB.Schema(), task.Target, len(task.TargetAttrs))
	if err != nil {
		return err
	}
	b := bottom.NewBuilder(task.DB, compiled, bottom.Options{Strategy: c.opts.Sampling, Seed: learnSeed})
	in := logic.NewInterner()
	b.SetInterner(in)
	examples := append(append([]autobias.Example(nil), task.Pos...), task.Neg...)

	grounds := make([]*logic.Clause, len(examples))
	end := r.tr.begin("bottom.construct_" + strings.ToLower(c.opts.Sampling.String()) + "_s")
	for i, e := range examples {
		if grounds[i], err = b.ConstructGround(e); err != nil {
			end()
			return err
		}
	}
	end()

	compiledGrounds := make([]*subsume.CompiledGround, len(grounds))
	end = r.tr.begin("subsume.compile_ground_s")
	for i, g := range grounds {
		compiledGrounds[i] = subsume.CompileGround(in, g)
	}
	end()

	sopts := subsume.Options{Seed: learnSeed}
	end = r.tr.begin("subsume.CheckCompiled")
	t0 := time.Now()
	checks := 0
	for _, cl := range res.Definition.Clauses {
		for _, cg := range compiledGrounds {
			subsume.CheckCompiled(cl, cg, sopts)
			checks++
		}
	}
	rs.add("subsume.check_per_s", checks, time.Since(t0))
	end()

	if len(task.Pos) > 1 {
		seedBC, err := b.Construct(task.Pos[0])
		if err != nil {
			return err
		}
		end = r.tr.begin("learn.armg_probe_s")
		learn.ARMGCtx(r.ctx, seedBC, grounds[1], sopts)
		end()
	}

	// Exact evaluation runs each clause as a join, and a join that runs
	// out of its budget takes a quarter of a second, so the probe scores a
	// few held-out examples of each class, not all.
	end = r.tr.begin("query.exact_eval_s")
	defer end()
	for _, held := range [][]autobias.Example{c.data.testPos, c.data.testNeg} {
		for _, e := range held[:min(exactProbePerClass, len(held))] {
			m, err := res.EvaluateExact([]autobias.Example{e}, nil)
			if err != nil {
				return err
			}
			approx, err := res.Covers(e)
			if err != nil {
				return err
			}
			if exact := m.TP == 1; exact != approx {
				r.layer["query.disagreements"]++
			}
		}
	}
	return nil
}
