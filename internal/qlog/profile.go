package qlog

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"statcube/internal/stats"
)

// CostStat summarizes one cost distribution (wall ns, bytes, cells)
// with exact offline percentiles — the profiler sorts the raw values,
// so unlike the obs bounded histograms these are not 2x estimates.
type CostStat struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// NodeStat is one CUBE-lattice node's workload share: how often the
// node was queried and what it cost.
type NodeStat struct {
	Node   string   `json:"node"`
	Count  int      `json:"count"`
	WallNs CostStat `json:"wall_ns"`
	Bytes  CostStat `json:"bytes"`
	Cells  CostStat `json:"cells"`
}

// PlanStat is one normalized plan's aggregate cost, for the top-K
// expensive-plans table.
type PlanStat struct {
	Fingerprint string   `json:"fingerprint"`
	Kind        string   `json:"kind"`
	Count       int      `json:"count"`
	TotalWallNs float64  `json:"total_wall_ns"`
	WallNs      CostStat `json:"wall_ns"`
}

// Profile is the workload profile statprof emits: the aggregate a
// recorded flight log reduces to. Every slice is deterministically
// ordered (frequency-desc, then name) so text and JSON output are
// stable for the same log.
type Profile struct {
	Records   int            `json:"records"`
	Malformed int            `json:"malformed,omitempty"`
	Slow      int            `json:"slow,omitempty"`
	Outcomes  map[string]int `json:"outcomes"`
	Nodes     []NodeStat     `json:"nodes"`
	TopPlans  []PlanStat     `json:"top_plans"`
}

// costStat reduces raw samples to a CostStat (exact percentiles:
// stats.NearestRank on the sorted sample set).
func costStat(vals []float64) CostStat {
	if len(vals) == 0 {
		return CostStat{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return CostStat{
		Count: int64(len(s)),
		Sum:   sum,
		Mean:  sum / float64(len(s)),
		P50:   stats.NearestRank(s, 50),
		P95:   stats.NearestRank(s, 95),
		P99:   stats.NearestRank(s, 99),
		Max:   s[len(s)-1],
	}
}

// BuildProfile reduces a flight log to its workload profile. topK bounds
// the expensive-plans table (≤ 0 means 10). malformed is carried through
// from ReadAll so the profile reports what the log lost.
func BuildProfile(recs []Record, malformed, topK int) *Profile {
	if topK <= 0 {
		topK = 10
	}
	p := &Profile{Records: len(recs), Malformed: malformed, Outcomes: map[string]int{}}
	type acc struct {
		wall, bytes, cells []float64
		count              int
	}
	nodes := map[string]*acc{}
	plans := map[string]*PlanStat{}
	planWall := map[string][]float64{}
	for i := range recs {
		rec := &recs[i]
		p.Outcomes[rec.Outcome]++
		if rec.Slow {
			p.Slow++
		}
		node := rec.Node
		if node == "" {
			node = "(unknown)"
		}
		a := nodes[node]
		if a == nil {
			a = &acc{}
			nodes[node] = a
		}
		a.count++
		a.wall = append(a.wall, float64(rec.WallNs))
		a.bytes = append(a.bytes, float64(rec.Bytes))
		a.cells = append(a.cells, float64(rec.Cells))
		fp := rec.Fingerprint
		if fp == "" {
			fp = rec.Kind
		}
		ps := plans[fp]
		if ps == nil {
			ps = &PlanStat{Fingerprint: fp, Kind: rec.Kind}
			plans[fp] = ps
		}
		ps.Count++
		ps.TotalWallNs += float64(rec.WallNs)
		planWall[fp] = append(planWall[fp], float64(rec.WallNs))
	}
	for node, a := range nodes {
		p.Nodes = append(p.Nodes, NodeStat{
			Node:   node,
			Count:  a.count,
			WallNs: costStat(a.wall),
			Bytes:  costStat(a.bytes),
			Cells:  costStat(a.cells),
		})
	}
	sort.Slice(p.Nodes, func(i, j int) bool {
		if p.Nodes[i].Count != p.Nodes[j].Count {
			return p.Nodes[i].Count > p.Nodes[j].Count
		}
		return p.Nodes[i].Node < p.Nodes[j].Node
	})
	for fp, ps := range plans {
		ps.WallNs = costStat(planWall[fp])
		p.TopPlans = append(p.TopPlans, *ps)
	}
	sort.Slice(p.TopPlans, func(i, j int) bool {
		if p.TopPlans[i].TotalWallNs != p.TopPlans[j].TotalWallNs {
			return p.TopPlans[i].TotalWallNs > p.TopPlans[j].TotalWallNs
		}
		return p.TopPlans[i].Fingerprint < p.TopPlans[j].Fingerprint
	})
	if len(p.TopPlans) > topK {
		p.TopPlans = p.TopPlans[:topK]
	}
	return p
}

// ms formats nanoseconds as milliseconds for the human tables.
func ms(ns float64) string { return fmt.Sprintf("%.3f", ns/1e6) }

// Text renders the profile as the human-readable workload report.
func (p *Profile) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload profile: %d records", p.Records)
	if p.Malformed > 0 {
		fmt.Fprintf(&b, " (%d malformed lines skipped)", p.Malformed)
	}
	b.WriteByte('\n')
	if len(p.Outcomes) > 0 {
		keys := make([]string, 0, len(p.Outcomes))
		for k := range p.Outcomes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("outcomes:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, p.Outcomes[k])
		}
		if p.Slow > 0 {
			fmt.Fprintf(&b, " slow=%d", p.Slow)
		}
		b.WriteByte('\n')
	}
	if len(p.Nodes) > 0 {
		b.WriteString("\nlattice nodes (by frequency):\n")
		fmt.Fprintf(&b, "  %-40s %8s %12s %12s %12s %12s\n", "node", "count", "p50 ms", "p95 ms", "p99 ms", "max ms")
		for _, n := range p.Nodes {
			fmt.Fprintf(&b, "  %-40s %8d %12s %12s %12s %12s\n",
				n.Node, n.Count, ms(n.WallNs.P50), ms(n.WallNs.P95), ms(n.WallNs.P99), ms(n.WallNs.Max))
		}
	}
	if len(p.TopPlans) > 0 {
		b.WriteString("\ntop plans (by total wall time):\n")
		fmt.Fprintf(&b, "  %-56s %8s %12s %12s\n", "fingerprint", "count", "total ms", "p95 ms")
		for _, t := range p.TopPlans {
			fp := t.Fingerprint
			if len(fp) > 56 {
				fp = fp[:53] + "..."
			}
			fmt.Fprintf(&b, "  %-56s %8d %12s %12s\n", fp, t.Count, ms(t.TotalWallNs), ms(t.WallNs.P95))
		}
	}
	return b.String()
}

// JSON renders the profile as deterministic indented JSON.
func (p *Profile) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}
