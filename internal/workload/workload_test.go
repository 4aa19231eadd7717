package workload

import (
	"testing"
)

func TestNewCensus(t *testing.T) {
	c, err := NewCensus(1000, 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Micro.NumRows() != 1000 || c.Privacy.N() != 1000 {
		t.Errorf("rows = %d, privacy n = %d", c.Micro.NumRows(), c.Privacy.N())
	}
	if got := len(c.Geo.LeafLevel().Values); got != 12 {
		t.Errorf("counties = %d", got)
	}
	if err := c.Geo.CheckSummarizable(0, 1); err != nil {
		t.Errorf("geo should be summarizable: %v", err)
	}
	// Determinism.
	c2, _ := NewCensus(1000, 4, 3, 1)
	if c.Micro.Row(0)[5].Float() != c2.Micro.Row(0)[5].Float() {
		t.Error("census not deterministic")
	}
	if _, err := NewCensus(0, 1, 1, 1); err == nil {
		t.Error("invalid params should fail")
	}
}

func TestNewRetail(t *testing.T) {
	r, err := NewRetail(50, 8, 60, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Input.Rows) != 2000 || len(r.Input.Vals) != 2000 {
		t.Errorf("tx = %d/%d", len(r.Input.Rows), len(r.Input.Vals))
	}
	if err := r.Input.Validate(); err != nil {
		t.Errorf("coded input invalid: %v", err)
	}
	// Object total equals the generated amounts.
	objTotal, err := r.Object.Total("quantity sold")
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range r.Input.Vals {
		sum += v
	}
	if objTotal != sum {
		t.Errorf("object total %v != input sum %v", objTotal, sum)
	}
	// Hierarchies are strict/complete and roll up cleanly.
	if _, err := r.Object.SAggregate("store", "city"); err != nil {
		t.Errorf("store rollup: %v", err)
	}
	if _, err := r.Object.SAggregate("product", "category"); err != nil {
		t.Errorf("product rollup: %v", err)
	}
	// Zipf popularity: product 0 should dominate.
	count0 := 0
	for _, row := range r.Input.Rows {
		if row[0] == 0 {
			count0++
		}
	}
	if count0 < 2000/10 {
		t.Errorf("product-0 share = %d, expected Zipf head", count0)
	}
}

func TestNewStockSeries(t *testing.T) {
	s, err := NewStockSeries(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Prices) != 40 || len(s.Days) != 40 {
		t.Errorf("days = %d", len(s.Prices))
	}
	for _, p := range s.Prices {
		if p < 1 {
			t.Errorf("price %v below floor", p)
		}
	}
	if s.Weekly[0].Period != "w000" || s.Month[39].Period != "m01" {
		t.Errorf("period labels wrong: %v %v", s.Weekly[0], s.Month[39])
	}
	if _, err := NewStockSeries(0, 1); err == nil {
		t.Error("weeks=0 should fail")
	}
}

func TestNewHMO(t *testing.T) {
	h, err := NewHMO(100, 5000, 0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.MultiCount == 0 {
		t.Error("no multi-specialty physicians generated")
	}
	if h.Physicians.IsStrictEdge(0) {
		t.Error("physician classification should be non-strict")
	}
	// The rollup must be refused — the whole point of the workload.
	if _, err := h.Object.SAggregate("physician", "specialty"); err == nil {
		t.Error("non-strict rollup should be rejected")
	}
	visits, err := h.Object.Total("visits")
	if err != nil || visits != 5000 {
		t.Errorf("visits = %v, %v", visits, err)
	}
	// Zero multi-fraction gives a strict classification.
	h2, err := NewHMO(50, 100, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !h2.Physicians.IsStrictEdge(0) {
		t.Error("zero multi-fraction should be strict")
	}
	if _, err := h2.Object.SAggregate("physician", "specialty"); err != nil {
		t.Errorf("strict rollup should work: %v", err)
	}
}
