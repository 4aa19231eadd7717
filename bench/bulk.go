package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"statcube/internal/core"
	"statcube/internal/cube"
	"statcube/internal/query"
	"statcube/internal/snapshot"
)

// bulkReads is how many library queries follow each rebuild.
const bulkReads = 4

// flatten reads a result object out the way serve's wire format does.
func flatten(o *core.StatObject) (dims, measures []string, coords [][]string, values [][]float64) {
	for _, d := range o.Schema().Dimensions() {
		dims = append(dims, d.Name)
	}
	for _, m := range o.Measures() {
		measures = append(measures, m.Name)
	}
	o.ForEach(func(cs []core.Value, vs []float64) bool {
		row := make([]string, len(cs))
		for i, c := range cs {
			row[i] = string(c)
		}
		coords = append(coords, row)
		values = append(values, append([]float64(nil), vs...))
		return true
	})
	return dims, measures, coords, values
}

// bulkSetUp generates the dataset and a store holding one materialized
// generation: what a restart of the daemon finds.
func bulkSetUp(ctx context.Context, cfg runConfig, dir string) (*dataset, float64, error) {
	var ds *dataset
	took, err := cfg.cal.seconds(func() (err error) {
		if ds, err = newDataset(cfg.size, cfg.seed); err != nil {
			return err
		}
		_, wr, err := openWriter(ctx, ds, dir, nil)
		if err != nil {
			return err
		}
		return wr.Close(ctx)
	})
	return ds, took, err
}

// runBulk is the library and batch user's workload, with no server: the
// whole cube is built and saved into a fresh store (statcli
// -snapshot-dir's build-once path), a writer is opened on a store that
// already holds a generation (restart recovery), and a few queries are
// evaluated through the library. The cycle repeats for the window.
func runBulk(ctx context.Context, cfg runConfig) (res *result, err error) {
	res = &result{Workload: "bulk_build", values: map[string]float64{}}
	scratch, err := os.MkdirTemp(cfg.outDir, "bulk_build-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var ds *dataset
	var setups []float64
	prepared := ""
	for i := 0; i < cfg.setUps(); i++ {
		prepared = filepath.Join(scratch, fmt.Sprintf("prepared-%d", i))
		var took float64
		if ds, took, err = bulkSetUp(ctx, cfg, prepared); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	res.values["setup_s"] = median(setups)
	if ds.oracle, err = newOracle(ds.retail); err != nil {
		return nil, err
	}
	plans := newPlans(rand.New(rand.NewSource(cfg.seed)), ds.oracle, 64)

	if cfg.trace {
		// The layer pass needs the handler and the writer to call into, so
		// it gets an engine; no traffic runs.
		var eng *engine
		if eng, err = startEngine(ctx, ds, filepath.Join(scratch, "store"), 0); err != nil {
			return nil, err
		}
		defer func() {
			if serr := eng.stop(); err == nil {
				err = serr
			}
		}()
		from := time.Now()
		if err := layerPass(ctx, cfg, eng, plans, plans, newTracer(), scratch, res); err != nil {
			return nil, err
		}
		res.finish(cfg, from, time.Now())
		return res, nil
	}

	in := ds.retail.Input
	nViews := 1 << uint(len(in.Card))
	wantViews := make([]map[uint64]float64, nViews)
	for mask := range wantViews {
		wantViews[mask] = groupBy(in.Card, in.Rows, in.Vals, mask)
	}
	wantAnswers := make([]answer, len(plans))
	for i, p := range plans {
		wantAnswers[i] = ds.oracle.answer(p.spec)
	}
	wantTotal := total(in.Vals)

	runtime.GC()
	var writes, recovers []float64
	var reads []float64
	var genBytes int64
	start := time.Now()
	for cycle := 0; time.Since(start) < cfg.window || cycle < 3; cycle++ {
		// Each step of a cycle is scaled by the reference kernel's runs
		// at the cycle's two ends.
		cfg.cal.tick()
		cycleAt := time.Now()
		dir := filepath.Join(scratch, "fresh")
		store, err := snapshot.OpenStore(dir)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		views, err := cube.BuildROLAPSmallestParentCtx(ctx, in, cube.Options{})
		if err != nil {
			return nil, err
		}
		gen, err := cube.SaveViews(ctx, store, datasetName, views)
		if err != nil {
			return nil, err
		}
		writes = append(writes, float64(time.Since(t0))/1e6)
		mask := cycle % nViews
		res.expect(gen == 1 && sameView(views.View(mask), wantViews[mask]), "cycle %d: built view %03b differs from the oracle's (generation %d)", cycle, mask, gen)
		if genBytes, err = newestGenBytes(store); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}

		rec, err := recoverStore(ctx, ds, prepared)
		if err != nil {
			return nil, err
		}
		recovers = append(recovers, rec.took.Seconds())
		res.expect(rec.gen == 1 && rec.total == wantTotal && rec.baseCells == len(wantViews[nViews-1]),
			"cycle %d: recovered generation %d, total %v, %d base cells; want 1, %v, %d", cycle, rec.gen, rec.total, rec.baseCells, wantTotal, len(wantViews[nViews-1]))

		var lat []float64
		for k := 0; k < bulkReads; k++ {
			p := (cycle*bulkReads + k) % len(plans)
			t0 := time.Now()
			got, err := query.RunCtx(ctx, ds.retail.Object, plans[p].text)
			lat = append(lat, float64(time.Since(t0))/1e6)
			if err != nil {
				res.expect(false, "%s: %v", plans[p].text, err)
				continue
			}
			err = wantAnswers[p].equal(flatten(got))
			res.expect(err == nil, "%s: %v", plans[p].text, err)
		}
		cfg.cal.tick()
		f := cfg.cal.factor(cycleAt, time.Now())
		writes[cycle] *= f
		recovers[cycle] *= f
		for k := range lat {
			lat[k] *= f
		}
		reads = append(reads, lat...)
	}
	end := time.Now()
	res.values["heap_mb"] = heapMiB()
	runtime.KeepAlive(ds) // the dataset is part of a library user's live heap

	sum := summarize([][]float64{reads})
	res.values["read_p50_ms"], res.values["read_p95_ms"], res.values["read_qps"] = sum.p50ms, sum.p95ms, sum.qps
	res.values["write_p50_ms"] = median(writes)
	res.values["recover_s"] = median(recovers)
	res.values["store_bytes_per_cell"] = float64(genBytes) / float64(len(wantViews[nViews-1]))
	res.finish(cfg, start, end)
	return res, nil
}
