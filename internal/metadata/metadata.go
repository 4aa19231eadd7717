// Package metadata ties the micro-data / macro-data / metadata triad of
// Section 3.3.3 of Shoshani's OLAP-vs-SDB survey together:
//
//   - MacroFromMicro derives a statistical object (macro-data) from a
//     relation of individual records (micro-data) by the declared
//     summarization function — the top arrow of Figure 16;
//   - the Homomorphism harness checks the completeness property of
//     [MRS92] (Section 5.5): summarize(relational-op(micro)) equals
//     statistical-op(summarize(micro)) — the commuting square of
//     Figure 16;
//   - Registry records the metadata a proper SDB must keep: where each
//     derived dataset came from, which method produced it (including the
//     classification realignments of Section 5.7), and when.
package metadata

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"statcube/internal/core"
	"statcube/internal/relstore"
	"statcube/internal/schema"
)

// ErrColumnMapping is returned when the micro relation does not supply the
// columns the schema requires.
var ErrColumnMapping = errors.New("metadata: micro relation missing required column")

// MacroFromMicro summarizes a micro-data relation into a statistical
// object: each dimension of the schema must name a string column of the
// relation (holding leaf category values), and each measure must name a
// numeric column via measureCols (Count measures may map to "" and count
// rows). Rows whose category values are not in the classification are
// rejected — micro-data must conform to the metadata.
func MacroFromMicro(micro *relstore.Relation, sch *schema.Graph, measures []core.Measure, measureCols map[string]string) (*core.StatObject, error) {
	obj, err := core.New(sch, measures)
	if err != nil {
		return nil, err
	}
	dims := sch.Dimensions()
	dimIdx := make([]int, len(dims))
	for i, d := range dims {
		ci, err := micro.ColIndex(d.Name)
		if err != nil {
			return nil, fmt.Errorf("%w: dimension %q", ErrColumnMapping, d.Name)
		}
		dimIdx[i] = ci
	}
	nd, n := len(dims), micro.NumRows()
	type mcol struct {
		measure string
		col     int       // -1: count rows
		vals    []float64 // the column's values, in row order
	}
	var mcols []mcol
	for _, m := range measures {
		colName, ok := measureCols[m.Name]
		if !ok {
			return nil, fmt.Errorf("%w: measure %q has no column mapping", ErrColumnMapping, m.Name)
		}
		if colName == "" {
			if m.Func != core.Count {
				return nil, fmt.Errorf("metadata: only count measures may map to no column (measure %q)", m.Name)
			}
			mcols = append(mcols, mcol{m.Name, -1, nil})
			continue
		}
		ci, err := micro.ColIndex(colName)
		if err != nil {
			return nil, fmt.Errorf("%w: measure column %q", ErrColumnMapping, colName)
		}
		mcols = append(mcols, mcol{m.Name, ci, make([]float64, 0, n)})
	}
	// Code each row once through the classifications' leaf ordinals, then
	// fold the whole relation as one batch.
	codes := make([]int, 0, nd*n)
	var ingestErr error
	micro.Scan(func(row relstore.Row) bool {
		for i, d := range dims {
			c, err := d.Class.ValueOrdinal(0, row[dimIdx[i]].Str())
			if err != nil {
				ingestErr = err
				return false
			}
			codes = append(codes, c)
		}
		for j := range mcols {
			if mc := &mcols[j]; mc.col >= 0 {
				mc.vals = append(mc.vals, row[mc.col].Float())
			}
		}
		return true
	})
	if ingestErr != nil {
		return nil, ingestErr
	}
	rows := make([][]int, n)
	for r := range rows {
		rows[r] = codes[r*nd : (r+1)*nd : (r+1)*nd]
	}
	obs := map[string][]float64{}
	for _, mc := range mcols {
		if mc.col >= 0 {
			obs[mc.measure] = mc.vals
		}
	}
	if err := obj.ObserveRows(rows, obs); err != nil {
		return nil, err
	}
	return obj, nil
}

// Entry is one metadata record: the provenance of a derived dataset.
type Entry struct {
	Name        string
	Kind        string // "classification", "derivation", "realignment", ...
	Description string
	Method      string // how the data was produced — the §5.7 requirement
	Sources     []string
}

// Registry stores metadata entries; it is safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]Entry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{entries: map[string]Entry{}} }

// Record stores an entry, failing on duplicate names (metadata must not be
// silently overwritten).
func (r *Registry) Record(e Entry) error {
	if e.Name == "" {
		return errors.New("metadata: entry with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.Name]; dup {
		return fmt.Errorf("metadata: duplicate entry %q", e.Name)
	}
	r.entries[e.Name] = e
	return nil
}

// Lookup returns the named entry.
func (r *Registry) Lookup(name string) (Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// ByKind returns entries of one kind, sorted by name.
func (r *Registry) ByKind(kind string) []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Entry
	for _, e := range r.entries {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of entries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
