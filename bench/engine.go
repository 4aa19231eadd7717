package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"statcube/internal/cube"
	"statcube/internal/serve"
	"statcube/internal/snapshot"
	"statcube/internal/writer"
)

// engine is statcube wired the way `statd -write -snapshot-dir` wires
// it, in this process: a writer over a snapshot store, a server over
// the object with that writer mounted, a real loopback listener.
type engine struct {
	ds       *dataset
	storeDir string
	store    *snapshot.Store
	wr       *writer.Writer
	srv      *serve.Server
	hs       *serve.HTTPServer
	url      string // http://127.0.0.1:port
}

// openWriter opens a writer over the store at dir, seeding an empty
// store from the dataset. onPublish may be nil.
func openWriter(ctx context.Context, ds *dataset, dir string, onPublish func(uint64)) (*snapshot.Store, *writer.Writer, error) {
	store, err := snapshot.OpenStore(dir)
	if err != nil {
		return nil, nil, err
	}
	wr, err := writer.Open(ctx, writer.Config{
		Store:     store,
		Name:      datasetName,
		Base:      ds.base,
		Masks:     viewMasks,
		OnPublish: onPublish,
	})
	return store, wr, err
}

// startEngine brings the engine up over a fresh store directory.
// cacheBytes 0 keeps serve's default (64 MiB).
func startEngine(ctx context.Context, ds *dataset, storeDir string, cacheBytes int64) (*engine, error) {
	e := &engine{ds: ds, storeDir: storeDir}
	var err error
	e.store, e.wr, err = openWriter(ctx, ds, storeDir, func(gen uint64) {
		// The writer is opened before the server exists, as in statd.
		if e.srv != nil {
			e.srv.SetGeneration(gen)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("open writer: %w", err)
	}
	e.srv, err = serve.New(serve.Config{Object: ds.retail.Object, Writer: e.wr, CacheBytes: cacheBytes})
	if err != nil {
		return nil, err
	}
	e.srv.SetGeneration(e.wr.Generation())
	e.hs, err = serve.ListenAndServe("127.0.0.1:0", e.srv.Handler())
	if err != nil {
		return nil, err
	}
	e.url = "http://" + e.hs.Addr().String()
	return e, nil
}

// stop shuts the listener down and waits for the serve loop. The writer
// is deliberately not closed: recovery is measured on what a killed
// process would leave behind.
func (e *engine) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return e.hs.Shutdown(ctx)
}

// copyStore copies a store directory's generation files, as a restart
// would find them.
func copyStore(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close() // the copy error is the one to report
		return err
	}
	return out.Close()
}

// newestGenBytes is the size of the newest generation file in a store.
func newestGenBytes(store *snapshot.Store) (int64, error) {
	gens, err := store.Generations(datasetName)
	if err != nil {
		return 0, err
	}
	if len(gens) == 0 {
		return 0, fmt.Errorf("store %s holds no generation", store.Dir())
	}
	path := filepath.Join(store.Dir(), fmt.Sprintf("%s.%08d.snap", datasetName, gens[len(gens)-1]))
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// recovered is what a restart finds in a store.
type recovered struct {
	gen       uint64
	total     float64 // grand total of the recovered cube
	baseCells int
	at        time.Time     // when writer.Open was called
	took      time.Duration // writer.Open alone
}

// recoverStore opens a writer on a store directory, as a restarted
// daemon would, and reads back what it recovered. Opening a store that
// holds a generation writes nothing, so it can be repeated.
func recoverStore(ctx context.Context, ds *dataset, dir string) (recovered, error) {
	rec := recovered{at: time.Now()}
	_, wr, err := openWriter(ctx, ds, dir, nil)
	rec.took = time.Since(rec.at)
	if err != nil {
		return rec, err
	}
	h := wr.Acquire()
	defer h.Release()
	rec.gen = h.Generation()
	apex, _, err := h.Answer(0)
	if err != nil {
		return rec, err
	}
	rec.total = apex[0]
	base, _, err := h.Answer(baseMask(h.Set()))
	if err != nil {
		return rec, err
	}
	rec.baseCells = len(base)
	return rec, wr.Close(ctx)
}

func baseMask(set *cube.MaterializedSet) int { return 1<<uint(len(set.Card())) - 1 }
