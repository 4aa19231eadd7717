package query

import (
	"context"
	"testing"

	"statcube/internal/workload"
)

// BenchmarkEvalRetail evaluates one query of each of the five plan shapes
// the benchmark's load generator draws (bench/gen.go) against the retail
// dataset it serves: 100 products, 20 stores, 180 days, 100 000
// transactions. One op is the five queries, parsed and evaluated.
func BenchmarkEvalRetail(b *testing.B) {
	r, err := workload.NewRetail(100, 20, 180, 100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	texts := []string{
		"SHOW quantity sold BY store WHERE product IN (product-0003, product-0041) AND month = month-02",
		"SHOW quantity sold BY category, city WHERE day IN (day-0017, day-0120)",
		"SHOW quantity sold BY product WHERE store IN (store-004, store-013) AND month = month-04",
		"SHOW quantity sold WHERE category = category-03 AND city = city-02 AND day = day-0077",
		"SHOW quantity sold BY day WHERE product IN (product-0001, product-0058)",
	}
	ctx := context.Background()
	eval := func() {
		for _, text := range texts {
			got, err := RunCtx(ctx, r.Object, text)
			if err != nil {
				b.Fatalf("%s: %v", text, err)
			}
			if got.Cells() == 0 {
				b.Fatalf("%s: empty answer", text)
			}
		}
	}
	eval() // every query answers; a built object's first read settles it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval()
	}
}
