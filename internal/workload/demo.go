package workload

import (
	"fmt"

	"statcube/internal/core"
	"statcube/internal/metadata"
)

// Demo builds one of the built-in datasets the command-line tools serve
// by name: employment (Figure 1), retail (Figure 2), census (macro-data
// derived from synthetic micro-data) and hmo (a non-strict
// classification).
func Demo(name string) (*core.StatObject, error) {
	switch name {
	case "employment":
		return NewEmployment()
	case "retail":
		r, err := NewRetail(40, 12, 60, 20000, 1)
		if err != nil {
			return nil, err
		}
		return r.Object, nil
	case "census":
		c, err := NewCensus(20000, 5, 4, 1)
		if err != nil {
			return nil, err
		}
		return metadata.MacroFromMicro(c.Micro, c.Schema,
			[]core.Measure{
				{Name: "population", Func: core.Count, Type: core.Stock},
				{Name: "avg income", Unit: "dollars", Func: core.Avg, Type: core.ValuePerUnit},
			},
			map[string]string{"population": "", "avg income": "income"})
	case "hmo":
		h, err := NewHMO(100, 10000, 0.25, 1)
		if err != nil {
			return nil, err
		}
		return h.Object, nil
	default:
		return nil, fmt.Errorf("unknown demo %q (have employment, retail, census, hmo)", name)
	}
}
