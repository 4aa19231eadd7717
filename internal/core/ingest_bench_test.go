package core

import (
	"fmt"
	"math/rand"
	"testing"

	"statcube/internal/hierarchy"
	"statcube/internal/schema"
)

// retailBatch is a batch shaped like the bench dataset's facts
// (NewRetail(100, 20, 180, n)): Zipf-popular products over 20 stores
// and 180 days, integer amounts, on an empty object of that schema.
func retailBatch(n int) (*StatObject, [][]int, map[string][]float64) {
	var dims []schema.Dimension
	for _, d := range []struct {
		name string
		card int
	}{{"product", 100}, {"store", 20}, {"day", 180}} {
		vals := make([]Value, d.card)
		for i := range vals {
			vals[i] = fmt.Sprintf("%s-%03d", d.name, i)
		}
		dims = append(dims, schema.Dimension{Name: d.name, Class: hierarchy.FlatClassification(d.name, vals...)})
	}
	o := MustNew(schema.MustNew("retail", dims...), []Measure{{Name: "quantity sold", Func: Sum, Type: Flow}})
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, 99)
	coords := make([][]int, n)
	amounts := make([]float64, n)
	for i := range coords {
		coords[i] = []int{int(zipf.Uint64()), rng.Intn(20), rng.Intn(180)}
		amounts[i] = float64(1 + rng.Intn(200))
	}
	return o, coords, map[string][]float64{"quantity sold": amounts}
}

// BenchmarkObserveRows loads 100 000 retail facts into an empty object as
// one batch ("empty"), a 500-fact batch into that loaded, settled object
// ("settled", the offline append's shape), and the 100 000 facts one
// ObserveAt call each ("observe-at", the per-fact path the batch
// replaces).
func BenchmarkObserveRows(b *testing.B) {
	o, coords, obs := retailBatch(100000)
	b.Run("empty", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fresh := MustNew(o.sch, o.measures)
			if err := fresh.ObserveRows(coords, obs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("settled", func(b *testing.B) {
		if err := o.ObserveRows(coords, obs); err != nil {
			b.Fatal(err)
		}
		_, batch, bobs := retailBatch(500)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := o.ObserveRows(batch, bobs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("observe-at", func(b *testing.B) {
		b.ReportAllocs()
		row := map[string]float64{}
		for i := 0; i < b.N; i++ {
			fresh := MustNew(o.sch, o.measures)
			for r, c := range coords {
				row["quantity sold"] = obs["quantity sold"][r]
				if err := fresh.ObserveAt(c, row); err != nil {
					b.Fatal(err)
				}
			}
			fresh.store.settle()
		}
	})
}
