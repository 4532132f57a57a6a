package learn

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/bottom"
	"repro/internal/logic"
)

// fullScores is the beam merge as it ran before the bound, kept as
// boundedScores' oracle: every candidate's negatives counted in one call,
// merged with the beam, sorted best-first (higher score, shorter clause,
// smaller key) and cut to width.
func fullScores(beam, best []scored, width int, countNeg func([]*logic.Clause) ([]int, error)) ([]scored, error) {
	cs := make([]*logic.Clause, len(best))
	for i, b := range best {
		cs[i] = b.clause
	}
	ns, err := countNeg(cs)
	if err != nil {
		return nil, err
	}
	all := append([]scored(nil), beam...)
	for i, b := range best {
		b.score -= ns[i]
		all = append(all, b)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		if len(all[i].clause.Body) != len(all[j].clause.Body) {
			return len(all[i].clause.Body) < len(all[j].clause.Body)
		}
		return all[i].key < all[j].key
	})
	return all[:min(len(all), width)], nil
}

// rendered is a merge's outcome as comparable text: key and score of
// each kept clause, best-first.
func rendered(ss []scored) string {
	out := ""
	for _, s := range ss {
		out += fmt.Sprintf("%s=%d ", s.key, s.score)
	}
	return out
}

// FuzzBeamBound holds boundedScores to the full merge over random beams
// and candidates: the same top width, order included, with no candidate
// counted twice. Each record of four bytes is one clause — beam member
// or candidate, positives, negatives, body length — and its key is its
// index, spelled so that key order is not index order.
func FuzzBeamBound(f *testing.F) {
	f.Add(uint8(3), []byte{0, 9, 2, 3, 1, 9, 0, 4, 1, 7, 0, 2, 1, 9, 5, 1, 1, 3, 0, 3})
	f.Add(uint8(1), []byte{1, 4, 0, 2, 1, 4, 0, 1, 1, 4, 1, 1, 0, 3, 0, 1})
	f.Add(uint8(2), []byte{1, 5, 5, 2, 1, 5, 0, 2, 1, 5, 0, 2, 1, 0, 0, 1, 0, 5, 0, 2})
	// A candidate that ties the beam's last score at its best case and
	// wins on body length: a bound on scores alone skips it.
	f.Add(uint8(0x10), []byte("0927070017000000"))
	f.Fuzz(func(t *testing.T, w uint8, data []byte) {
		width := int(w%5) + 1
		var beam, best []scored
		neg := make(map[*logic.Clause]int)
		for i := 0; i+4 <= len(data) && i < 4*64; i += 4 {
			c := &logic.Clause{Body: make([]logic.Literal, int(data[i+3]%4)+1)}
			s := scored{clause: c, score: int(data[i+1] % 12), key: fmt.Sprintf("%c%02d", 'a'+(i*7)%26, i/4)}
			if data[i]%2 == 0 {
				s.score -= int(data[i+2] % 12)
				beam = append(beam, s)
				continue
			}
			neg[c] = int(data[i+2] % 12)
			best = append(best, s)
		}
		// The beam a round starts from is a previous merge's top width.
		beam, _ = fullScores(beam, nil, width, func([]*logic.Clause) ([]int, error) { return nil, nil })
		counted := make(map[*logic.Clause]bool)
		countNeg := func(cs []*logic.Clause) ([]int, error) {
			if len(cs) > width {
				t.Fatalf("counted %d candidates at once, width %d", len(cs), width)
			}
			ns := make([]int, len(cs))
			for i, c := range cs {
				if counted[c] {
					t.Fatalf("candidate counted twice")
				}
				counted[c] = true
				ns[i] = neg[c]
			}
			return ns, nil
		}
		want, _ := fullScores(beam, append([]scored(nil), best...), width, func(cs []*logic.Clause) ([]int, error) {
			ns := make([]int, len(cs))
			for i, c := range cs {
				ns[i] = neg[c]
			}
			return ns, nil
		})
		got, err := boundedScores(append([]scored(nil), beam...), append([]scored(nil), best...), width, countNeg)
		if err != nil {
			t.Fatal(err)
		}
		if rendered(got) != rendered(want) {
			t.Fatalf("width %d:\n got %s\nwant %s", width, rendered(got), rendered(want))
		}
	})
}

// beamTrace is the armg beam with its merge observed: every round's
// merged beam, every search's winner, and how many fresh candidates the
// merge was handed against how many it counted.
type beamTrace struct {
	beamSearch
	rounds, winners []string
	fresh, counted  int
}

func (bt *beamTrace) LearnClause(ctx context.Context, l *Learner, pos, neg []Example) (*logic.Clause, error) {
	c, err := bt.beamSearch.LearnClause(ctx, l, pos, neg)
	bt.winners = append(bt.winners, fmt.Sprint(c))
	return c, err
}

func traced(merge func(beam, best []scored, width int, countNeg func([]*logic.Clause) ([]int, error)) ([]scored, error)) *beamTrace {
	bt := &beamTrace{}
	bt.merge = func(beam, best []scored, width int, countNeg func([]*logic.Clause) ([]int, error)) ([]scored, error) {
		bt.fresh += len(best)
		out, err := merge(beam, best, width, func(cs []*logic.Clause) ([]int, error) {
			bt.counted += len(cs)
			return countNeg(cs)
		})
		bt.rounds = append(bt.rounds, rendered(out))
		return out, err
	}
	return bt
}

// TestBeamBoundMatchesFullCount runs the covering loop with the bounded
// beam and with the full-count merge on every bundled dataset at scale
// 0.1 under the induced bias, over its first 30 positives and 60
// negatives: every round's beam (keys and scores), every search's winner
// and the theory must be the full count's, and the bound must have left
// some candidate's negatives uncounted. Under the race detector only
// imdb and flt run (uw alone takes over two minutes there).
func TestBeamBoundMatchesFullCount(t *testing.T) {
	datasets := []string{"uw", "imdb", "hiv", "flt", "sys"}
	if raceEnabled {
		datasets = []string{"imdb", "flt"}
	}
	for _, name := range datasets {
		t.Run(name, func(t *testing.T) {
			w := newReduceWorld(t, name, 0.1, bottom.Naive)
			run := func(bt *beamTrace) string {
				l := New(w.ds.DB, w.compiled, Options{Bottom: bottom.Options{Strategy: w.strategy, Seed: 1}, Workers: 2, Search: bt})
				def, _, err := l.Learn(w.ds.Pos[:min(len(w.ds.Pos), 30)], w.ds.Neg[:min(len(w.ds.Neg), 60)])
				if err != nil {
					t.Fatal(err)
				}
				return def.String()
			}
			bounded, full := traced(boundedScores), traced(fullScores)
			gotDef, wantDef := run(bounded), run(full)
			if len(bounded.rounds) != len(full.rounds) {
				t.Fatalf("%d rounds, full count %d", len(bounded.rounds), len(full.rounds))
			}
			for r := range full.rounds {
				if bounded.rounds[r] != full.rounds[r] {
					t.Fatalf("round %d beam:\n got %s\nwant %s", r, bounded.rounds[r], full.rounds[r])
				}
			}
			if fmt.Sprint(bounded.winners) != fmt.Sprint(full.winners) {
				t.Fatalf("winners diverge:\n got %v\nwant %v", bounded.winners, full.winners)
			}
			if gotDef != wantDef {
				t.Fatalf("theory diverges:\n got %s\nwant %s", gotDef, wantDef)
			}
			if bounded.fresh != full.fresh || full.counted != full.fresh {
				t.Fatalf("fresh candidates %d vs %d, full count counted %d", bounded.fresh, full.fresh, full.counted)
			}
			if bounded.counted >= bounded.fresh {
				t.Fatalf("the bound counted all %d candidates' negatives: nothing was pruned", bounded.fresh)
			}
			t.Logf("%d rounds, %d searches: negatives counted for %d of %d candidates", len(full.rounds), len(full.winners), bounded.counted, bounded.fresh)
		})
	}
}
