package cube

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// fuzzyInput generates a coded fact table whose values span many orders of
// magnitude, so any change in float summation order shows up in the bits.
func fuzzyInput(card []int, rows int, seed int64) *Input {
	rng := rand.New(rand.NewSource(seed))
	in := &Input{Card: append([]int(nil), card...)}
	for i := 0; i < rows; i++ {
		row := make([]int, len(card))
		for d, c := range card {
			row[d] = rng.Intn(c)
		}
		in.Rows = append(in.Rows, row)
		in.Vals = append(in.Vals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(10)-5)))
	}
	return in
}

// forceParallel drops the row threshold so small test inputs exercise the
// parallel path, restoring it on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	old := parMinRows
	parMinRows = 0
	t.Cleanup(func() { parMinRows = old })
}

// TestParallelBuildersByteIdentical is the tentpole guarantee: every
// builder produces bit-for-bit the same Views with 1, 2, 4 and 8 workers,
// under GOMAXPROCS 1, 2 and 8.
func TestParallelBuildersByteIdentical(t *testing.T) {
	forceParallel(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	in := fuzzyInput([]int{5, 4, 3, 3}, 3000, 7)
	builders := []struct {
		name  string
		build func(context.Context, *Input, Options) (*Views, error)
	}{
		{"ROLAPNaive", BuildROLAPNaiveCtx},
		{"ROLAPSmallestParent", BuildROLAPSmallestParentCtx},
		{"MOLAP", BuildMOLAPCtx},
	}
	for _, b := range builders {
		seq, err := b.build(context.Background(), in, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s sequential: %v", b.name, err)
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{0, 2, 4, 8} {
				par, err := b.build(context.Background(), in, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", b.name, workers, err)
				}
				if !par.Identical(seq) {
					t.Fatalf("%s procs=%d workers=%d: parallel Views not byte-identical to sequential",
						b.name, procs, workers)
				}
			}
		}
	}
}

// TestParallelBuildersAgreeAcrossAlgorithms checks the three parallel
// builds still agree with each other (within Equal's tolerance — the
// algorithms legitimately differ in summation order between themselves).
func TestParallelBuildersAgreeAcrossAlgorithms(t *testing.T) {
	forceParallel(t)
	in := fuzzyInput([]int{6, 5, 4}, 2000, 11)
	opt := Options{Workers: 4}
	rn, err := BuildROLAPNaiveCtx(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := BuildROLAPSmallestParentCtx(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := BuildMOLAPCtx(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rn.Equal(sp) {
		t.Error("parallel naive != parallel smallest-parent")
	}
	if !rn.Equal(mo) {
		t.Error("parallel naive != parallel MOLAP")
	}
}

// TestSequentialBuildIsStable pins down the prerequisite for the
// byte-identity guarantee: building twice sequentially gives bit-equal
// results (parent views must be folded in sorted key order, not map order).
func TestSequentialBuildIsStable(t *testing.T) {
	in := fuzzyInput([]int{7, 6, 5}, 4000, 3)
	for _, build := range []func(context.Context, *Input, Options) (*Views, error){
		BuildROLAPNaiveCtx, BuildROLAPSmallestParentCtx, BuildMOLAPCtx,
	} {
		a, err := build(context.Background(), in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := build(context.Background(), in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Identical(b) {
			t.Fatal("two sequential builds differ bit-for-bit")
		}
	}
}

// TestSmallInputStaysSequential checks the fallback threshold: without the
// test override, a small input must not fan out.
func TestSmallInputStaysSequential(t *testing.T) {
	in := fuzzyInput([]int{3, 3}, 50, 1)
	st := Options{Workers: 8}.stage(context.Background(), "test", len(in.Rows))
	if st.Workers != 1 {
		t.Fatalf("stage below threshold got %d workers, want 1", st.Workers)
	}
	big := Options{Workers: 8}.stage(context.Background(), "test", parMinRows)
	if big.Workers != 8 {
		t.Fatalf("stage at threshold got %d workers, want 8", big.Workers)
	}
}
