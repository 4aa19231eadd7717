// Command statd is the statcube query daemon: it loads a built-in
// dataset and serves concise statistical queries over HTTP with an
// admission-controlled, budget-bounded result cache (internal/serve).
//
// Usage:
//
//	statd -demo employment -addr 127.0.0.1:8080
//	curl 'http://127.0.0.1:8080/query?q=SHOW+employment+BY+sex+WHERE+year+%3D+1992'
//
// Endpoints:
//
//	GET/POST /query      JSON result; ?q= or JSON body {"q": "..."}
//	GET/POST /query.bin  the same result in the compact binary format
//	POST     /append     fold a fact batch into the cube, publish a generation (-write)
//	GET      /healthz    liveness + cache/admission stats (+ writer load status)
//	POST     /invalidate drop every cached result (admin)
//	GET      /metrics    obs registry (plus /metrics.json, /debug/pprof/)
//
// With -write the daemon mounts the MVCC write path: POST /append
// batches fold into the dataset's cube by delta maintenance and publish
// as crash-atomic snapshot generations (durable under -snapshot-dir),
// and each publish live-invalidates the result cache. With
// -snapshot-dir and -watch, the daemon additionally polls the store's
// generation list and invalidates when another process publishes — the
// serving half of the store's crash-atomic publish protocol.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"statcube/internal/budget"
	"statcube/internal/cube"
	"statcube/internal/parallel"
	"statcube/internal/qlog"
	"statcube/internal/serve"
	"statcube/internal/snapshot"
	"statcube/internal/workload"
	"statcube/internal/writer"
)

// Exit codes mirror statcli's taxonomy so scripts treat both binaries
// uniformly.
const (
	exitOK       = 0 // clean shutdown
	exitUsage    = 1 // bad invocation or unloadable dataset
	exitBudget   = 2 // a resource budget refused startup work
	exitCanceled = 3 // canceled before the daemon came up
	exitPanic    = 4 // a worker panic was contained
	exitCorrupt  = 5 // snapshot store corrupt
)

func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, budget.ErrBudgetExceeded):
		return exitBudget
	case budget.IsCanceled(err):
		return exitCanceled
	case errors.Is(err, parallel.ErrWorkerPanic):
		return exitPanic
	case errors.Is(err, snapshot.ErrCorrupt):
		return exitCorrupt
	default:
		return exitUsage
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts that used :0)")
	demo := flag.String("demo", "employment", "built-in dataset: employment, retail, census, hmo")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request deadline; 0 means none")
	maxBytes := flag.Int64("max-bytes", 0, "serving ledger size in bytes shared by admissions and per-query memory (default 256 MiB)")
	admitBytes := flag.Int64("admit-bytes", 0, "up-front ledger reservation per admitted request (default 1 MiB)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently admitted requests (default 64)")
	cacheBytes := flag.Int64("cache-bytes", 0, "result cache budget in bytes (default 64 MiB; negative disables the bound)")
	snapshotDir := flag.String("snapshot-dir", "", "snapshot store to watch for generation changes (with -watch) and to publish write-path generations into (with -write)")
	watch := flag.Duration("watch", 0, "poll -snapshot-dir at this interval and invalidate the cache on a new generation; 0 disables")
	writePath := flag.Bool("write", false, "mount the write path: POST /append folds batched facts into the dataset's cube and publishes MVCC snapshot generations (durable with -snapshot-dir, in-memory otherwise)")
	qlogPath := flag.String("qlog", "", "append one NDJSON flight record per query to this file")
	slowMS := flag.Int64("slow-ms", 0, "report queries slower than this many milliseconds on stderr")
	usage := flag.Usage
	flag.Usage = func() {
		usage()
		fmt.Fprintf(flag.CommandLine.Output(), `
Exit codes:
  %d  clean shutdown (interrupt or SIGTERM)
  %d  bad invocation or unloadable dataset
  %d  resource budget exceeded during startup
  %d  canceled before the daemon came up
  %d  a worker panic was contained and reported
  %d  snapshot store corrupt
`, exitOK, exitUsage, exitBudget, exitCanceled, exitPanic, exitCorrupt)
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "statd: unexpected arguments %q\n", flag.Args())
		os.Exit(exitUsage)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *qlogPath != "" || *slowMS > 0 {
		rec := qlog.Default()
		rec.SetEnabled(true)
		if *qlogPath != "" {
			f, err := os.OpenFile(*qlogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, "statd:", err)
				os.Exit(exitUsage)
			}
			defer f.Close()
			rec.SetSink(f, 1)
		}
		if *slowMS > 0 {
			rec.SetSlowThreshold(time.Duration(*slowMS) * time.Millisecond)
			rec.SetOnSlow(func(r *qlog.Record) {
				fmt.Fprintf(os.Stderr, "statd: slow query (%.1fms ≥ %dms): %s [%s]\n",
					float64(r.WallNs)/1e6, *slowMS, r.Text, r.Outcome)
			})
		}
	}

	obj, err := workload.Demo(*demo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statd:", err)
		os.Exit(exitUsage)
	}

	var store *snapshot.Store
	if *snapshotDir != "" {
		store, err = snapshot.OpenStore(*snapshotDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "statd:", err)
			os.Exit(exitCode(err))
		}
	}

	// The write path: a single-writer MVCC writer over the dataset's
	// cube, each /append one load published as a generation, durable in
	// the snapshot store when one is configured. OnPublish
	// live-invalidates the result cache the moment a load becomes
	// reader-visible — no poll latency on the write path itself (-watch
	// still covers generations published by OTHER processes, e.g.
	// statcli -append against the same store).
	var srv *serve.Server
	var wr *writer.Writer
	if *writePath {
		base, err := workload.CubeInputFromObject(obj)
		if err != nil {
			fmt.Fprintln(os.Stderr, "statd:", err)
			os.Exit(exitUsage)
		}
		wr, err = writer.Open(ctx, writer.Config{
			Store: store,
			Name:  *demo,
			Base:  base,
			OnPublish: func(gen uint64) {
				if srv != nil {
					srv.SetGeneration(gen)
				}
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "statd:", err)
			os.Exit(exitCode(err))
		}
		fmt.Fprintf(os.Stderr, "statd: write path up at generation %d\n", wr.Generation())
	}

	srv, err = serve.New(serve.Config{
		Object:      obj,
		MaxInflight: *maxInflight,
		MaxBytes:    *maxBytes,
		AdmitBytes:  *admitBytes,
		CacheBytes:  *cacheBytes,
		Timeout:     *timeout,
		Writer:      wr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "statd:", err)
		os.Exit(exitUsage)
	}

	// Seed the generation before serving, so the first poll doesn't
	// spuriously invalidate a cold cache. The writer's opening
	// generation wins when the write path is up (it recovered the
	// newest loadable one); otherwise the store's newest file does.
	if wr != nil {
		srv.SetGeneration(wr.Generation())
	} else if store != nil {
		if gen, err := newestGeneration(ctx, store, *demo); err == nil {
			srv.SetGeneration(gen)
		}
	}

	hs, err := serve.ListenAndServe(*addr, srv.Handler())
	if err != nil {
		fmt.Fprintln(os.Stderr, "statd:", err)
		os.Exit(exitUsage)
	}
	fmt.Fprintf(os.Stderr, "statd: serving %q on http://%s/query\n", *demo, hs.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(hs.Addr().String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "statd:", err)
			_ = hs.Close()
			os.Exit(exitUsage)
		}
	}

	// The main loop: wait for an interrupt, polling the snapshot store's
	// generations in between when -watch is set. Polling runs here, not
	// in a goroutine — the daemon's only background concurrency is the
	// accept loop internal/serve owns.
	var tick <-chan time.Time
	if store != nil && *watch > 0 {
		t := time.NewTicker(*watch)
		defer t.Stop()
		tick = t.C
	}
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-tick:
			if gen, err := newestGeneration(ctx, store, *demo); err == nil {
				srv.SetGeneration(gen) // no-op unless the generation changed
			}
		}
	}

	stop()
	fmt.Fprintln(os.Stderr, "statd: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "statd: shutdown:", err)
		os.Exit(exitUsage)
	}
	if wr != nil {
		// Every acknowledged append is already published and durable;
		// closing only releases the append log and the writer's pin.
		if err := wr.Close(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "statd: closing the write path:", err)
			os.Exit(exitCode(err))
		}
	}
}

// newestGeneration returns the generation a reader of the dataset's
// store recovers: its newest good checkpoint plus the logs extending it,
// through the loader every reader of a store shares — a generation a
// writer published only to the log counts. Each poll decodes the store;
// the watch interval bounds what that costs.
func newestGeneration(ctx context.Context, st *snapshot.Store, name string) (uint64, error) {
	_, gen, err := cube.LoadViews(ctx, st, name)
	return gen, err
}
