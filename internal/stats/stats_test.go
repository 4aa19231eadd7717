package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	got, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || !almost(got, 2.5) {
		t.Errorf("Mean = %v, %v", got, err)
	}
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v", err)
	}
}

func TestVarianceStdDev(t *testing.T) {
	v, err := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil || !almost(v, 4) {
		t.Errorf("Variance = %v, %v", v, err)
	}
	sd, err := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil || !almost(sd, 2) {
		t.Errorf("StdDev = %v, %v", sd, err)
	}
	if _, err := StdDev(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v", err)
	}
	// Constant data: zero variance.
	v, _ = Variance([]float64{3, 3, 3})
	if !almost(v, 0) {
		t.Errorf("constant variance = %v", v)
	}
}

// TestNearestRank pins the one nearest-rank definition statprof and
// statload share: rank ⌈p/100·n⌉, so the p50 of ten values is the 5th.
func TestNearestRank(t *testing.T) {
	ten := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		sorted []int
		p      float64
		want   int
	}{
		{ten, 50, 5}, {ten, 95, 10}, {ten, 99, 10}, {ten, 90, 9}, {ten, 91, 10},
		{ten, 0, 1}, {ten, 100, 10}, {ten, -5, 1}, {ten, 250, 10},
		{[]int{7}, 50, 7}, {[]int{15, 20, 35, 40, 50}, 30, 20}, {[]int{15, 20, 35, 40, 50}, 40, 20},
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := NearestRank(c.sorted, c.p); got != c.want {
			t.Errorf("NearestRank(%v, %v) = %d, want %d", c.sorted, c.p, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil || !almost(got, c.want) {
			t.Errorf("Percentile(%v) = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	// Interpolation.
	got, _ := Percentile([]float64{10, 20}, 50)
	if !almost(got, 15) {
		t.Errorf("interpolated median = %v", got)
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("p>100 should fail")
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v", err)
	}
	one, _ := Percentile([]float64{7}, 99)
	if one != 7 {
		t.Errorf("singleton percentile = %v", one)
	}
}

func TestMedianUnsortedInputUnchanged(t *testing.T) {
	xs := []float64{3, 1, 2}
	m, err := Median(xs)
	if err != nil || !almost(m, 2) {
		t.Errorf("Median = %v, %v", m, err)
	}
	if xs[0] != 3 {
		t.Error("Median mutated its input")
	}
}

func TestTrimmedMean(t *testing.T) {
	// One wild outlier; 10% trim removes it.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 1000}
	plain, _ := Mean(xs)
	trimmed, err := TrimmedMean(xs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if trimmed >= plain {
		t.Errorf("trimmed %v not below plain %v", trimmed, plain)
	}
	if !almost(trimmed, (2+3+4+5+6+7+8+9)/8.0) {
		t.Errorf("trimmed = %v", trimmed)
	}
	if _, err := TrimmedMean(xs, 0.5); err == nil {
		t.Error("trim=0.5 should fail")
	}
	if _, err := TrimmedMean(nil, 0.1); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v", err)
	}
}

func TestMovingAverage(t *testing.T) {
	ma, err := MovingAverage([]float64{1, 2, 3, 4, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1.5, 2, 3, 4}
	for i := range want {
		if !almost(ma[i], want[i]) {
			t.Errorf("ma[%d] = %v, want %v", i, ma[i], want[i])
		}
	}
	if _, err := MovingAverage(nil, 0); err == nil {
		t.Error("window=0 should fail")
	}
}

func TestRollupPeriods(t *testing.T) {
	obs := []Observation{
		{"w1", 10}, {"w1", 15}, {"w1", 5},
		{"w2", 20}, {"w2", 30},
	}
	out := RollupPeriods(obs)
	if len(out) != 2 {
		t.Fatalf("periods = %d", len(out))
	}
	w1 := out[0]
	if w1.Period != "w1" || w1.N != 3 || w1.Open != 10 || w1.Close != 5 ||
		w1.High != 15 || w1.Low != 5 || !almost(w1.Mean, 10) {
		t.Errorf("w1 = %+v", w1)
	}
	w2 := out[1]
	if w2.High != 30 || w2.Low != 20 || !almost(w2.Mean, 25) {
		t.Errorf("w2 = %+v", w2)
	}
	if len(RollupPeriods(nil)) != 0 {
		t.Error("empty rollup should be empty")
	}
}

// Property: trimmed mean lies between min and max; stddev is
// translation-invariant.
func TestQuickStatsInvariants(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN)%50 + 2
		xs := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		tm, err := TrimmedMean(xs, 0.2)
		if err != nil || tm < lo-1e-9 || tm > hi+1e-9 {
			return false
		}
		sd1, _ := StdDev(xs)
		shifted := make([]float64, n)
		for i := range xs {
			shifted[i] = xs[i] + 1000
		}
		sd2, _ := StdDev(shifted)
		return math.Abs(sd1-sd2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNaNRejected(t *testing.T) {
	nan := math.NaN()
	data := []float64{3, 1, nan, 2}
	if _, err := Percentile(data, 50); !errors.Is(err, ErrNaN) {
		t.Errorf("Percentile on NaN data: err = %v, want ErrNaN", err)
	}
	if _, err := Median(data); !errors.Is(err, ErrNaN) {
		t.Errorf("Median on NaN data: err = %v, want ErrNaN", err)
	}
	if _, err := TrimmedMean(data, 0.1); !errors.Is(err, ErrNaN) {
		t.Errorf("TrimmedMean on NaN data: err = %v, want ErrNaN", err)
	}
	// NaN parameters fail every range comparison, so the bounds checks
	// must test for them explicitly.
	if _, err := Percentile([]float64{1, 2}, nan); err == nil {
		t.Error("Percentile with NaN rank: no error")
	}
	if _, err := TrimmedMean([]float64{1, 2}, nan); err == nil {
		t.Error("TrimmedMean with NaN trim: no error")
	}
	// Clean data still works.
	if m, err := Median([]float64{3, 1, 2}); err != nil || m != 2 {
		t.Errorf("Median clean = %v, %v", m, err)
	}
}
