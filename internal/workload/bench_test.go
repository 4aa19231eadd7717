package workload

import "testing"

// The load-path kernels on the bench dataset (bench/gen.go:
// NewRetail(100, 20, 180, 100000, seed 1)), with allocations reported:
// generating and loading the retail object, and coding its cells as the
// served cube's base.

func BenchmarkNewRetail(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewRetail(100, 20, 180, 100000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCubeInputFromObject(b *testing.B) {
	r, err := NewRetail(100, 20, 180, 100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CubeInputFromObject(r.Object); err != nil {
			b.Fatal(err)
		}
	}
}
