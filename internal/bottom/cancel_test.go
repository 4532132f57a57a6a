package bottom

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/logic"
)

// TestConstructCtxCancelled: a cancelled context must abort construction
// with the ctx's error under every sampling strategy — never a silently
// truncated clause, which would make coverage results diverge between
// interrupted and uninterrupted runs.
func TestConstructCtxCancelled(t *testing.T) {
	d := table4(t)
	c := table3Bias(t, d.Schema())
	e := logic.NewLiteral("advisedBy", logic.Const("juan"), logic.Const("sarita"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range []Strategy{Naive, Random, Stratified} {
		b := NewBuilder(d, c, Options{Strategy: strat, Depth: 2})
		bc, err := b.ConstructCtx(ctx, e)
		if err == nil {
			t.Fatalf("%v: cancelled construct returned a clause: %v", strat, bc)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: error must wrap context.Canceled: %v", strat, err)
		}
		if bc != nil {
			t.Fatalf("%v: interrupted build must not return a partial clause", strat)
		}
	}
}

// TestConstructCtxDoneChannelCleared: after an interrupted build, the
// builder is reusable — a build's cancellation lives and ends with the
// build.
func TestConstructCtxDoneChannelCleared(t *testing.T) {
	d := table4(t)
	c := table3Bias(t, d.Schema())
	e := logic.NewLiteral("advisedBy", logic.Const("juan"), logic.Const("sarita"))
	b := NewBuilder(d, c, Options{Depth: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.ConstructCtx(ctx, e); err == nil {
		t.Fatal("cancelled construct must error")
	}
	bc, err := b.Construct(e)
	if err != nil {
		t.Fatalf("builder must be reusable after an interrupted build: %v", err)
	}
	if len(bc.Body) == 0 {
		t.Fatal("post-interrupt build produced an empty BC")
	}
}

// TestConstructCtxMatchesConstruct: threading a live ctx must not change
// the constructed clause.
func TestConstructCtxMatchesConstruct(t *testing.T) {
	d := table4(t)
	c := table3Bias(t, d.Schema())
	e := logic.NewLiteral("advisedBy", logic.Const("juan"), logic.Const("sarita"))
	want, err := NewBuilder(d, c, Options{Depth: 2}).Construct(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewBuilder(d, c, Options{Depth: 2}).ConstructCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("ctx variant diverged:\ngot  %v\nwant %v", got, want)
	}
}

// TestConstructFaultDelayHonorsDeadline: an injected delay at the
// bottom.construct site is interrupted by the context deadline — the
// mechanism the mid-build cancellation tests in the learner rely on.
func TestConstructFaultDelayHonorsDeadline(t *testing.T) {
	defer faultpoint.Reset()
	faultpoint.Enable("bottom.construct", faultpoint.Fault{Delay: 10 * time.Second})
	d := table4(t)
	c := table3Bias(t, d.Schema())
	e := logic.NewLiteral("advisedBy", logic.Const("juan"), logic.Const("sarita"))
	b := NewBuilder(d, c, Options{Depth: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := b.ConstructCtx(ctx, e)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded through the injected delay, got %v", err)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("deadline took %v to fire through the fault delay", e)
	}
}

// TestConstructFaultPerExampleSite: faults keyed by example string hit
// only that example's builds.
func TestConstructFaultPerExampleSite(t *testing.T) {
	defer faultpoint.Reset()
	d := table4(t)
	c := table3Bias(t, d.Schema())
	bad := logic.NewLiteral("advisedBy", logic.Const("juan"), logic.Const("sarita"))
	good := logic.NewLiteral("advisedBy", logic.Const("hong"), logic.Const("eric"))
	boom := errors.New("injected")
	faultpoint.Enable("bottom.construct:"+bad.String(), faultpoint.Fault{Err: boom})

	b := NewBuilder(d, c, Options{Depth: 2})
	if _, err := b.ConstructCtx(context.Background(), bad); !errors.Is(err, boom) {
		t.Fatalf("faulted example must fail with the injected error, got %v", err)
	}
	if _, err := b.ConstructCtx(context.Background(), good); err != nil {
		t.Fatalf("other examples must be unaffected: %v", err)
	}
}
