package learn_test

import (
	"context"
	"testing"

	"repro/internal/bias"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/foil"
	"repro/internal/learn"
	"repro/internal/report"
)

// cancelAtCall is a context that cancels itself at the k-th call of its
// Err method: every place the learner, the engine or subsumption can
// notice a cancellation becomes one value of k.
type cancelAtCall struct {
	context.Context
	cancel context.CancelFunc
	calls  int
	k      int
}

func (c *cancelAtCall) Err() error {
	c.calls++
	if c.calls == c.k {
		c.cancel()
	}
	return c.Context.Err()
}

// TestStopClassifiedOnce sweeps a cancellation over every ctx check of a
// small uw run, under both clause searches: whichever check sees it
// first, the run returns its partial theory classified exactly once —
// Cancelled, never TimedOut (the ctx error is Canceled, not a deadline),
// with exactly one deadline-hit event — and a run the cancellation never
// reached reports nothing. The armg beam's round loop used to set
// TimedOut itself, whatever the ctx error was.
func TestStopClassifiedOnce(t *testing.T) {
	ds, err := datagen.Generate("uw", datagen.Config{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := ds.Manual.Compile(ds.DB.Schema(), ds.Target, len(ds.TargetAttrs))
	if err != nil {
		t.Fatal(err)
	}
	pos, neg := ds.Pos[:8], ds.Neg[:30]
	searches := map[string]func(*db.Database, *bias.Compiled, learn.Options) *learn.Learner{
		"beam": learn.New,
		"foil": func(d *db.Database, c *bias.Compiled, o learn.Options) *learn.Learner {
			return foil.New(d, c, o)
		},
	}
	for name, newLearner := range searches {
		t.Run(name, func(t *testing.T) {
			run := func(k int) (*learn.Stats, *cancelAtCall) {
				inner, cancel := context.WithCancel(context.Background())
				defer cancel()
				ctx := &cancelAtCall{Context: inner, cancel: cancel, k: k}
				_, stats, err := newLearner(ds.DB, compiled, learn.Options{Seed: 1, Workers: 1}).LearnCtx(ctx, pos, neg)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				return stats, ctx
			}
			_, whole := run(0)
			if whole.calls < 50 {
				t.Fatalf("only %d ctx checks in a whole run; the sweep proves nothing", whole.calls)
			}
			// Every check of the first 400, then a stride that still lands on
			// ~200 more, so the sweep costs seconds whatever the run's length.
			stride := max((whole.calls-400)/200, 1)
			if testing.Short() {
				stride *= 8
			}
			for k := 1; k <= whole.calls+1; k++ {
				if k > 400 && k <= whole.calls && k%stride != 0 {
					continue
				}
				stats, ctx := run(k)
				hits := stats.Report.Count(report.DeadlineHit)
				fired := ctx.calls >= k
				switch {
				case stats.TimedOut:
					t.Fatalf("k=%d: a cancelled run reports TimedOut: %+v", k, stats)
				case fired && (!stats.Cancelled || hits != 1):
					t.Fatalf("k=%d: cancelled at check %d, Cancelled=%v with %d deadline-hit event(s)", k, k, stats.Cancelled, hits)
				case !fired && (stats.Cancelled || hits != 0):
					t.Fatalf("k=%d: the run ended after %d checks yet reports Cancelled=%v, %d deadline-hit event(s)", k, ctx.calls, stats.Cancelled, hits)
				}
			}
		})
	}
}
