package ind

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/db"
)

// Refresh after a random mutation batch must equal a fresh Discover on
// the post-batch database, for exact and approximate thresholds alike.
func TestRefreshMatchesDiscover(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		s := db.NewSchema()
		s.MustAdd("person", "id", "city")
		s.MustAdd("visit", "who", "where")
		s.MustAdd("city", "name")
		d := db.New(s)
		for i := 0; i < 30; i++ {
			d.MustInsert("person", fmt.Sprintf("p%d", i), fmt.Sprintf("c%d", r.Intn(8)))
			d.MustInsert("visit", fmt.Sprintf("p%d", r.Intn(40)), fmt.Sprintf("c%d", r.Intn(10)))
		}
		for i := 0; i < 10; i++ {
			d.MustInsert("city", fmt.Sprintf("c%d", i))
		}
		opts := Options{MaxError: 0.3}
		if trial%2 == 1 {
			opts.MaxError = 0
		}
		prior := Discover(d, opts)

		// Mutate one or two relations; leave the rest untouched.
		touched := []string{"visit"}
		vr := d.Relation("visit")
		for i := 0; i < 10; i++ {
			if err := vr.Insert(db.Tuple{fmt.Sprintf("p%d", r.Intn(50)), fmt.Sprintf("c%d", r.Intn(12))}); err != nil {
				t.Fatal(err)
			}
		}
		if trial%3 == 0 {
			snap := vr.Snapshot()
			vr.DeleteBatch([]db.Tuple{append(db.Tuple(nil), snap[r.Intn(len(snap))]...)})
		}
		if trial%4 == 0 {
			touched = append(touched, "person")
			if err := d.Insert("person", fmt.Sprintf("p%d", 100+trial), "c0"); err != nil {
				t.Fatal(err)
			}
		}

		got, err := Refresh(context.Background(), d, prior, touched, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := Discover(d, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: refresh\n%v\n!= discover\n%v", trial, got, want)
		}
	}
}
