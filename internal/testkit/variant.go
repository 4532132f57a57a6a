package testkit

import (
	"context"
	"fmt"

	autobias "repro"
	"repro/internal/schematx"
)

// VariantConfig drives one cross-variant differential run: the schema
// transforms to stress, the worker counts every variant must be
// bit-identical across, an optional shard layout for a distributed leg,
// and the held-out examples on which every variant's theory must agree
// with the base schema's theory.
type VariantConfig struct {
	// Transforms are the schema rewrites to compare against the base
	// schema. Each is round-trip-proved before any learning happens — an
	// unproven variant never reaches the learner.
	Transforms []schematx.Transform
	// Workers are the worker counts for the per-variant differential
	// (at least two, e.g. 1/4/8).
	Workers []int
	// ShardLayout, when non-nil, boots an in-process worker fleet per
	// variant (replica ids per shard, see StartShardFleet) and requires
	// the sharded run's theory to be bit-identical to the variant's
	// local reference.
	ShardLayout [][]string
	// HeldOut are the examples scored under every variant's learned
	// theory. They are phrased against the target relation, which no
	// transform rewrites, so the same literals are valid in every
	// variant.
	HeldOut []autobias.Example
}

// VariantLeg is one schema's outcome inside a cross-variant run.
type VariantLeg struct {
	// Name is "base" or the transform name that produced the schema.
	Name string
	// Leg is the variant's reference execution (first worker count).
	Leg Leg
	// Verdicts holds the reference theory's coverage verdict for each
	// held-out example, aligned with VariantConfig.HeldOut.
	Verdicts []bool
}

// VariantReport is the outcome of a cross-variant differential run.
type VariantReport struct {
	// Legs holds the base leg first, then one leg per transform.
	Legs []VariantLeg
	// Diffs is empty when every variant is internally deterministic
	// (across worker counts and the sharded leg) and externally
	// coverage-equivalent to the base schema on the held-out examples.
	Diffs []string
}

// CrossVariantDifferential is the schema-independence harness: it
// round-trip-proves each transform, learns the same problem on the base
// schema and on every variant, and checks
//
//  1. within each schema: theories bit-identical across cfg.Workers and
//     (when a shard layout is given) across the sharded transport, and
//  2. across schemas: the learned theories agree exactly with the base
//     theory on every held-out example — the paper's claim that the
//     concept, not the normalization, determines what is learned.
//
// Theories on different schemas mention different predicates, so no
// textual comparison is possible across variants; held-out coverage is
// the semantic equivalence check. opts must have MethodManual (variants
// carry their bias in Task.Manual; any other method would silently
// ignore the rewrite and test nothing).
func CrossVariantDifferential(ctx context.Context, task autobias.Task, opts autobias.Options, cfg VariantConfig) (*VariantReport, error) {
	if opts.Method != autobias.MethodManual {
		return nil, fmt.Errorf("testkit: cross-variant differential requires MethodManual, got %q", opts.Method)
	}
	if len(cfg.HeldOut) == 0 {
		return nil, fmt.Errorf("testkit: cross-variant differential needs held-out examples")
	}

	type run struct {
		name string
		task autobias.Task
	}
	runs := []run{{name: "base", task: task}}
	src := schematx.Source{DB: task.DB, Bias: task.Manual, Target: task.Target, TargetAttrs: task.TargetAttrs}
	for _, tr := range cfg.Transforms {
		v, err := schematx.RoundTrip(tr, src)
		if err != nil {
			return nil, err
		}
		vt := task
		vt.DB = v.DB
		vt.Manual = v.Bias
		runs = append(runs, run{name: v.Name, task: vt})
	}

	rep := &VariantReport{}
	for _, r := range runs {
		legs, diffs, err := Differential(ctx, r.task, opts, cfg.Workers)
		if err != nil {
			return rep, fmt.Errorf("testkit: variant %s: %w", r.name, err)
		}
		for _, d := range diffs {
			rep.Diffs = append(rep.Diffs, fmt.Sprintf("variant %s: %s", r.name, d))
		}
		ref := legs[0]

		if cfg.ShardLayout != nil {
			fleet, err := StartShardFleet(r.task, opts, cfg.ShardLayout)
			if err != nil {
				return rep, fmt.Errorf("testkit: variant %s: %w", r.name, err)
			}
			shOpts := opts
			shOpts.Shard = &autobias.ShardOptions{Workers: fleet.URLs}
			sharded, err := Run(ctx, r.task, shOpts, r.name+"/sharded")
			fleet.Close()
			if err != nil {
				return rep, fmt.Errorf("testkit: variant %s: %w", r.name, err)
			}
			if sharded.Theory != ref.Theory {
				rep.Diffs = append(rep.Diffs, fmt.Sprintf(
					"variant %s: sharded theory diverges from local reference:\n--- local\n%s\n--- sharded\n%s",
					r.name, ref.Theory, sharded.Theory))
			}
		}

		verdicts := make([]bool, len(cfg.HeldOut))
		for i, e := range cfg.HeldOut {
			v, err := ref.Result.Covers(e)
			if err != nil {
				return rep, fmt.Errorf("testkit: variant %s: scoring held-out %s: %w", r.name, e.String(), err)
			}
			verdicts[i] = v
		}
		rep.Legs = append(rep.Legs, VariantLeg{Name: r.name, Leg: ref, Verdicts: verdicts})
	}

	// Cross-schema equivalence: exact verdict agreement with the base
	// schema, reported per diverging example with both theories so a
	// failure is diagnosable without rerunning.
	base := rep.Legs[0]
	for _, vl := range rep.Legs[1:] {
		disagreements := 0
		for i, e := range cfg.HeldOut {
			if vl.Verdicts[i] == base.Verdicts[i] {
				continue
			}
			disagreements++
			rep.Diffs = append(rep.Diffs, fmt.Sprintf(
				"variant %s: held-out %s: base covers=%v, variant covers=%v",
				vl.Name, e.String(), base.Verdicts[i], vl.Verdicts[i]))
		}
		if disagreements > 0 {
			rep.Diffs = append(rep.Diffs, fmt.Sprintf(
				"variant %s: %d/%d held-out verdicts diverge\n--- base theory\n%s\n--- variant theory\n%s",
				vl.Name, disagreements, len(cfg.HeldOut), base.Leg.Theory, vl.Leg.Theory))
		}
	}
	return rep, nil
}
