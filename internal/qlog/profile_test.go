package qlog

import (
	"encoding/json"
	"strings"
	"testing"
)

// skewedLog builds a Zipf-shaped workload: the fine node dominates, the
// coarser nodes trail off, exactly the shape a statistical workload's
// category-attribute access distribution takes.
func skewedLog() []Record {
	var recs []Record
	add := func(node, fp string, count int, baseNs int64) {
		for i := 0; i < count; i++ {
			recs = append(recs, Record{
				Kind:        "query",
				Node:        node,
				Fingerprint: fp,
				WallNs:      baseNs * int64(i+1),
				Bytes:       int64(100 * (i + 1)),
				Cells:       int64(10 * (i + 1)),
				Outcome:     OutcomeOK,
			})
		}
	}
	add("profession,sex", "sum(income) by profession,sex", 8, 1000)
	add("sex", "sum(income) by sex", 4, 2000)
	add("()", "sum(income)", 2, 500)
	recs = append(recs, Record{Kind: "query", Node: "sex", Fingerprint: "sum(income) by sex",
		WallNs: 50000, Outcome: OutcomeBudget, Error: "budget: exceeded", Slow: true})
	return recs
}

func TestBuildProfileSkew(t *testing.T) {
	p := BuildProfile(skewedLog(), 3, 10)
	if p.Records != 15 || p.Malformed != 3 {
		t.Fatalf("records=%d malformed=%d, want 15 and 3", p.Records, p.Malformed)
	}
	if p.Outcomes[OutcomeOK] != 14 || p.Outcomes[OutcomeBudget] != 1 {
		t.Errorf("outcomes = %v", p.Outcomes)
	}
	if p.Slow != 1 {
		t.Errorf("slow = %d, want 1", p.Slow)
	}
	// Node frequencies must mirror the skew, most-hit first.
	wantNodes := []struct {
		node  string
		count int
	}{{"profession,sex", 8}, {"sex", 5}, {"()", 2}}
	if len(p.Nodes) != len(wantNodes) {
		t.Fatalf("got %d nodes: %+v", len(p.Nodes), p.Nodes)
	}
	for i, w := range wantNodes {
		n := p.Nodes[i]
		if n.Node != w.node || n.Count != w.count {
			t.Errorf("nodes[%d] = %s/%d, want %s/%d", i, n.Node, n.Count, w.node, w.count)
		}
		// Percentiles are monotone and bounded by the max.
		ws := n.WallNs
		if !(ws.P50 <= ws.P95 && ws.P95 <= ws.P99 && ws.P99 <= ws.Max) {
			t.Errorf("nodes[%d] percentiles not monotone: %+v", i, ws)
		}
		if ws.Count != int64(w.count) {
			t.Errorf("nodes[%d] wall count = %d, want %d", i, ws.Count, w.count)
		}
	}
	// Exact nearest-rank (stats.NearestRank: rank ⌈n·p/100⌉, the 4th of 8)
	// on the dominant node's samples 1000..8000.
	top := p.Nodes[0].WallNs
	if top.P50 != 4000 || top.Max != 8000 {
		t.Errorf("dominant node p50=%g max=%g, want 4000 and 8000", top.P50, top.Max)
	}
}

func TestBuildProfileTopK(t *testing.T) {
	p := BuildProfile(skewedLog(), 0, 2)
	if len(p.TopPlans) != 2 {
		t.Fatalf("topK=2 kept %d plans", len(p.TopPlans))
	}
	if p.TopPlans[0].TotalWallNs < p.TopPlans[1].TotalWallNs {
		t.Errorf("top plans not sorted by total wall time: %+v", p.TopPlans)
	}
	// The slow budget-refused outlier makes "sum(income) by sex" the most
	// expensive plan in aggregate despite fewer runs.
	if p.TopPlans[0].Fingerprint != "sum(income) by sex" {
		t.Errorf("top plan = %q", p.TopPlans[0].Fingerprint)
	}
}

func TestProfileRendering(t *testing.T) {
	p := BuildProfile(skewedLog(), 1, 10)
	text := p.Text()
	for _, want := range []string{"workload profile: 15 records", "1 malformed", "profession,sex", "lattice nodes", "top plans"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	b, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("profile JSON does not round-trip: %v", err)
	}
	if back.Records != p.Records || len(back.Nodes) != len(p.Nodes) {
		t.Errorf("round-trip mismatch: %+v", back)
	}
}

func TestCostStatEmpty(t *testing.T) {
	if s := costStat(nil); s != (CostStat{}) {
		t.Errorf("empty costStat = %+v", s)
	}
}
