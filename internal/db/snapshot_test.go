package db

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentSnapshotSeesWholeCommits is the torn-read test: every
// commit inserts one tuple into each of two relations, so a reader that
// pins Database.Snapshot must find both relations equally long — and
// exactly as long as the snapshot's version says — however the commits
// interleave with its reads.
func TestConcurrentSnapshotSeesWholeCommits(t *testing.T) {
	s := NewSchema()
	s.MustAdd("a", "k", "v")
	s.MustAdd("b", "k", "v")
	d := New(s)
	d.BuildIndexes()

	const commits = 2000
	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				snap := d.Snapshot()
				a, b := snap.Relation("a"), snap.Relation("b")
				if a.Len() != b.Len() || uint64(a.Len()) != snap.Version() {
					t.Errorf("torn snapshot: version %d holds %d tuples of a and %d of b", snap.Version(), a.Len(), b.Len())
					return
				}
				if n := a.Len(); n > 0 {
					key := fmt.Sprintf("k%d", n-1)
					if a.Frequency(0, key) != 1 || b.Frequency(0, key) != 1 {
						t.Errorf("version %d: the last commit's tuples are not both indexed", snap.Version())
						return
					}
				}
				reads.Add(1)
			}
		}()
	}
	for i := 0; i < commits; i++ {
		tp := Tuple{fmt.Sprintf("k%d", i), "v"}
		if _, err := d.Commit(map[string][]Tuple{"a": {tp}, "b": {tp}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("the readers never read")
	}
	if d.Version() != commits || d.TotalTuples() != 2*commits {
		t.Fatalf("after %d commits: version %d, %d tuples", commits, d.Version(), d.TotalTuples())
	}
}

// bytesPerCommit returns the median bytes allocated by one one-tuple
// insert into rel, over several commits.
func bytesPerCommit(rel *Relation, tag string) uint64 {
	var per []uint64
	var ms runtime.MemStats
	for i := 0; i < 21; i++ {
		tp := Tuple{fmt.Sprintf("%s_src_%d", tag, i), fmt.Sprintf("%s_dst_%d", tag, i)}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := rel.InsertBatch([]Tuple{tp}); err != nil {
			panic(err)
		}
		runtime.ReadMemStats(&ms)
		per = append(per, ms.TotalAlloc-before)
	}
	sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
	return per[len(per)/2]
}

// TestCommitBytesIndependentOfRelationSize: a commit costs O(batch), not
// O(relation). A one-tuple commit into an indexed relation of 100k tuples
// allocates what one into a relation of 1k tuples does, up to a constant.
func TestCommitBytesIndependentOfRelationSize(t *testing.T) {
	perSize := map[int]uint64{}
	for _, n := range []int{1000, 100000} {
		s := NewSchema()
		s.MustAdd("edge", "src", "dst")
		rel := New(s).Relation("edge")
		rows := make([]Tuple, n)
		for i := range rows {
			rows[i] = Tuple{fmt.Sprintf("s%d", i/10), fmt.Sprintf("d%d", i)}
		}
		if err := rel.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		rel.BuildIndexes()
		perSize[n] = bytesPerCommit(rel, "new")
	}
	t.Logf("bytes per one-tuple commit: %v", perSize)
	const slack = 4096
	small, large := perSize[1000], perSize[100000]
	if large > small+slack {
		t.Fatalf("a one-tuple commit allocates %d bytes into 100k tuples and %d into 1k: not O(batch)", large, small)
	}
}

// TestInsertDeleteAcrossMergesMatchesColdLoad interleaves insert and
// delete commits long enough to cross several delta merges. After every
// commit the indexed database must digest like a cold load of the same
// tuples, and a reader still holding an older snapshot must get that
// version's answers.
func TestInsertDeleteAcrossMergesMatchesColdLoad(t *testing.T) {
	s := mutSchema()
	d := New(s)
	d.BuildIndexes()
	var model []Tuple // edge's tuples, in stored order
	r := rand.New(rand.NewSource(5))

	type pinned struct {
		snap                          *Snapshot
		value                         string
		lookup, freq, distinct, maxFr int
	}
	var old []pinned
	merges := 0
	for c := 0; c < 400; c++ {
		var ins, del []Tuple
		for j := r.Intn(4); j >= 0; j-- {
			ins = append(ins, Tuple{fmt.Sprintf("n%d", r.Intn(10+c)), fmt.Sprintf("n%d", r.Intn(30))})
		}
		model = append(model, ins...)
		if c%7 == 6 {
			victim := model[r.Intn(len(model))]
			del = append(del, victim)
			for i, tp := range model {
				if tp.Equal(victim) {
					model = append(model[:i:i], model[i+1:]...)
					break
				}
			}
		}
		before := d.Relation("edge").cur.Load().idx[0].Load()
		if _, err := d.Commit(map[string][]Tuple{"edge": ins}, map[string][]Tuple{"edge": del}); err != nil {
			t.Fatal(err)
		}
		if after := d.Relation("edge").cur.Load().idx[0].Load(); len(del) == 0 && len(before.delta) > 0 && after.delta == nil {
			merges++
		}

		cold := New(s)
		for _, tp := range model {
			cold.MustInsert("edge", tp...)
		}
		if got, want := d.Relation("edge").IndexDigest(), cold.Relation("edge").IndexDigest(); got != want {
			t.Fatalf("commit %d: streamed digest %s, cold load %s", c, got, want)
		}
		if c%25 == 0 {
			snap := d.Snapshot()
			v := model[r.Intn(len(model))][0]
			e := snap.Relation("edge")
			old = append(old, pinned{snap, v, len(e.Lookup(0, v)), e.Frequency(0, v), e.DistinctCount(1), e.MaxFrequency(0)})
		}
	}
	t.Logf("%d delta merges", merges)
	if merges < 3 {
		t.Fatalf("the run crossed %d delta merges; the test needs several", merges)
	}
	for _, p := range old {
		e := p.snap.Relation("edge")
		got := pinned{p.snap, p.value, len(e.Lookup(0, p.value)), e.Frequency(0, p.value), e.DistinctCount(1), e.MaxFrequency(0)}
		if got != p {
			t.Fatalf("version %d answers %+v now, %+v when it was current", p.snap.Version(), got, p)
		}
	}
}
