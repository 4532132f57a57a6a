package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/faultpoint"
	"repro/internal/metrics"
)

func testDB() *db.Database {
	s := db.NewSchema()
	s.MustAdd("edge", "src", "dst")
	s.MustAdd("label", "node", "tag")
	d := db.New(s)
	for i := 0; i < 10; i++ {
		d.MustInsert("edge", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i+1)%10))
		d.MustInsert("label", fmt.Sprintf("n%d", i), fmt.Sprintf("t%d", i%3))
	}
	return d
}

func TestApplyCommitsAtomically(t *testing.T) {
	d := testDB()
	mc := metrics.New()
	ing := New(d, mc)
	c, err := ing.Apply(context.Background(), Batch{Mutations: []Mutation{
		{Op: OpInsert, Relation: "edge", Tuple: []string{"a", "b"}},
		{Op: OpInsert, Relation: "label", Tuple: []string{"a", "t9"}},
		{Op: OpDelete, Relation: "edge", Tuple: []string{"n0", "n1"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != 1 || c.Inserted != 2 || c.Deleted != 1 {
		t.Fatalf("commit = %+v", c)
	}
	if d.Relation("edge").Count(db.Tuple{"n0", "n1"}) != 0 {
		t.Fatal("delete not applied")
	}
	if got := mc.Counter(metrics.IngestTuplesApplied); got != 3 {
		t.Fatalf("tuples_applied = %d, want 3", got)
	}
}

func TestApplyRejectsWithoutMutating(t *testing.T) {
	d := testDB()
	ing := New(d, nil)
	before := d.IndexDigest()
	cases := []Batch{
		{},
		{Mutations: []Mutation{{Op: OpInsert, Relation: "nope", Tuple: []string{"x"}}}},
		{Mutations: []Mutation{{Op: OpInsert, Relation: "edge", Tuple: []string{"x"}}}},
		{Mutations: []Mutation{{Op: "upsert", Relation: "edge", Tuple: []string{"x", "y"}}}},
		{Mutations: []Mutation{{Op: OpDelete, Relation: "edge", Tuple: []string{"zz", "zz"}}}},
		// Valid insert followed by an invalid delete: nothing may land.
		{Mutations: []Mutation{
			{Op: OpInsert, Relation: "edge", Tuple: []string{"q", "r"}},
			{Op: OpDelete, Relation: "edge", Tuple: []string{"zz", "zz"}},
		}},
	}
	for i, b := range cases {
		if _, err := ing.Apply(context.Background(), b); err == nil {
			t.Fatalf("case %d: no error", i)
		}
	}
	if d.Version() != 0 {
		t.Fatalf("version advanced to %d on rejected batches", d.Version())
	}
	if d.IndexDigest() != before {
		t.Fatal("rejected batch mutated the database")
	}
}

func TestApplyBagDeleteWithinBatch(t *testing.T) {
	d := testDB()
	ing := New(d, nil)
	// Deleting a tuple inserted earlier in the same batch is legal.
	c, err := ing.Apply(context.Background(), Batch{Mutations: []Mutation{
		{Op: OpInsert, Relation: "edge", Tuple: []string{"w", "w"}},
		{Op: OpDelete, Relation: "edge", Tuple: []string{"w", "w"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Inserted != 1 || c.Deleted != 1 {
		t.Fatalf("commit = %+v", c)
	}
	// Deleting it twice when only one exists is not.
	_, err = ing.Apply(context.Background(), Batch{Mutations: []Mutation{
		{Op: OpInsert, Relation: "edge", Tuple: []string{"v", "v"}},
		{Op: OpDelete, Relation: "edge", Tuple: []string{"v", "v"}},
		{Op: OpDelete, Relation: "edge", Tuple: []string{"v", "v"}},
	}})
	if err == nil {
		t.Fatal("over-delete within batch accepted")
	}
}

// Delete validation is order-independent: the commit applies every
// insert before any delete, so a delete listed ahead of the insert
// that satisfies it must validate.
func TestApplyDeleteBeforeInsertOrderIndependent(t *testing.T) {
	d := testDB()
	ing := New(d, nil)
	c, err := ing.Apply(context.Background(), Batch{Mutations: []Mutation{
		{Op: OpDelete, Relation: "edge", Tuple: []string{"u", "u"}},
		{Op: OpInsert, Relation: "edge", Tuple: []string{"u", "u"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Inserted != 1 || c.Deleted != 1 {
		t.Fatalf("commit = %+v", c)
	}
	if d.Relation("edge").Count(db.Tuple{"u", "u"}) != 0 {
		t.Fatal("net-zero batch left a tuple behind")
	}
	// Two deletes against one same-batch insert still over-delete,
	// whatever the order.
	if _, err := ing.Apply(context.Background(), Batch{Mutations: []Mutation{
		{Op: OpDelete, Relation: "edge", Tuple: []string{"x", "x"}},
		{Op: OpDelete, Relation: "edge", Tuple: []string{"x", "x"}},
		{Op: OpInsert, Relation: "edge", Tuple: []string{"x", "x"}},
	}}); err == nil {
		t.Fatal("over-delete accepted")
	}
}

// A commit must survive the wire whole: a client reads the same
// version and counts as a caller beside the ingestor.
func TestCommitJSONRoundTrip(t *testing.T) {
	d := testDB()
	ing := New(d, nil)
	c, err := ing.Apply(context.Background(), Batch{Mutations: []Mutation{
		{Op: OpInsert, Relation: "edge", Tuple: []string{"j1", "j2"}},
		{Op: OpDelete, Relation: "label", Tuple: []string{"n0", "t0"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Commit
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Version != c.Version || back.Inserted != c.Inserted || back.Deleted != c.Deleted {
		t.Fatalf("round-trip commit = %+v, want %+v", back, c)
	}
}

// ApplyAndNotify's contract: hooks run under the commit lock, so with
// concurrent callers every hook sees the database version equal to its
// own commit's, and versions arrive in strictly increasing order.
func TestApplyAndNotifyOrdersHooks(t *testing.T) {
	d := testDB()
	ing := New(d, nil)
	var seen []uint64
	hook := func(c Commit) {
		if v := d.Version(); v != c.Version {
			t.Errorf("hook for version %d sees database version %d", c.Version, v)
		}
		seen = append(seen, c.Version) // hooks are serialized by the commit lock
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				b := Batch{Mutations: []Mutation{
					{Op: OpInsert, Relation: "edge", Tuple: []string{fmt.Sprintf("g%d", g), fmt.Sprintf("i%d", i)}},
				}}
				if _, err := ing.ApplyAndNotify(context.Background(), b, hook); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(seen) != 80 {
		t.Fatalf("hooks fired %d times, want 80", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] != seen[i-1]+1 {
			t.Fatalf("hook versions out of order: %v", seen)
		}
	}
}

func TestCommitFaultpointLeavesDBUntouched(t *testing.T) {
	d := testDB()
	ing := New(d, nil)
	before := d.IndexDigest()
	faultpoint.Enable("ingest.commit", faultpoint.Fault{Err: errors.New("boom")})
	defer faultpoint.Reset()
	_, err := ing.Apply(context.Background(), Batch{Mutations: []Mutation{
		{Op: OpInsert, Relation: "edge", Tuple: []string{"f", "g"}},
	}})
	if err == nil {
		t.Fatal("injected fault not surfaced")
	}
	if d.Version() != 0 || d.IndexDigest() != before {
		t.Fatal("faulted commit mutated the database")
	}
	faultpoint.Reset()
	if _, err := ing.Apply(context.Background(), Batch{Mutations: []Mutation{
		{Op: OpInsert, Relation: "edge", Tuple: []string{"f", "g"}},
	}}); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPBatchAndStream(t *testing.T) {
	d := testDB()
	ing := New(d, nil)
	srv := NewServer(ing, 4)
	srv.StreamBatch = 2
	var hooked []uint64
	srv.OnCommit = func(c Commit) { hooked = append(hooked, c.Version) }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/ingest", "application/json",
		strings.NewReader(`{"mutations":[{"op":"insert","relation":"edge","tuple":["h1","h2"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	nd := `{"op":"insert","relation":"edge","tuple":["s1","s2"]}
{"op":"insert","relation":"edge","tuple":["s3","s4"]}
{"op":"delete","relation":"edge","tuple":["s1","s2"]}
`
	resp, err = ts.Client().Post(ts.URL+"/ingest/stream", "application/x-ndjson", strings.NewReader(nd))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	if d.Version() != 3 { // one batch + two stream flushes (2 + 1 mutations)
		t.Fatalf("version = %d, want 3", d.Version())
	}
	if len(hooked) != 3 || hooked[0] != 1 || hooked[2] != 3 {
		t.Fatalf("OnCommit saw %v", hooked)
	}
	if d.Relation("edge").Count(db.Tuple{"s1", "s2"}) != 0 {
		t.Fatal("streamed delete not applied")
	}

	// Malformed batch → structured 400.
	resp, err = ts.Client().Post(ts.URL+"/ingest", "application/json",
		strings.NewReader(`{"mutations":[{"op":"insert","relation":"nope","tuple":["x"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 {
		t.Fatalf("invalid batch status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}
