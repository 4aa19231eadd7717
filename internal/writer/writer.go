// Package writer is the engine's production write path: each appended
// batch of facts is one load, folded into a materialized cube by delta
// maintenance and published as the next generation, which concurrent
// readers pin for the lifetime of a query — MVCC reader/writer isolation
// built on internal/snapshot's versioned store.
//
// The paper's own operational model (§3: static data, periodic bulk
// loads) made concurrent, with the two §6.5 techniques E8 proved as
// experiments running as the real load cycle:
//
//   - appends never restructure: a load folds its batch into the base
//     cuboid and every registered view incrementally ([RKR97] deltas —
//     never a rematerialization), staged on a clone of the published
//     generation that shares its packed runs and takes its own delta run
//     per view (cube.MaterializedSet.AppendRowsCtx): a publish copies
//     the batch's share of each view, not the cube;
//   - a publish writes the batch, not the dataset: the load's coded
//     batch is appended to the store's log as one CRC32C-framed record
//     and fsynced, and only then does the new generation become
//     reader-visible;
//   - readers never block: a read handle pins one immutable generation
//     (in memory by reference, on disk by a store pin that pruning
//     honors) with one short mutex hold — never across a load's fold or
//     its log append.
//
// The publish protocol, one load at a time:
//
//  1. validate the appended batch; each load attempt starts at
//     writer.append;
//  2. clone the published set and fold the batch in (writer.delta);
//  3. append the batch's record to the live log and fsync it (log.write)
//     — the commit point: from here a crash replays the batch on the
//     next Open;
//  4. swap the published pointer (writer.publish fires just before), and
//     acknowledge;
//  5. once the live log has grown to the newest checkpoint's size, write
//     the published set as a checkpoint at its own generation
//     (Store.SaveAt), which starts an empty log. Checkpoints keep
//     recovery's replay short and the bytes written at most about twice
//     the logged ones; a failed checkpoint fails no load — the
//     generation is already durable in the log — and the next load
//     retries it.
//
// A fault before the commit point leaves no record: the log is cut back
// to its previous length. A fault the process survives between the
// commit point and the swap withdraws the record the same way, so the
// batch is never logged twice; a record that cannot be withdrawn is
// committed and published. Either way a batch is published at most
// once, and Append's answer says which: nil once it is published and
// durable, an error when no attempt of the bounded retry published it —
// then the batch is gone, and only the caller can send it again. Open
// recovers through cube.RecoverMaterialized — the
// newest good checkpoint plus its logs, folded in one call — and the
// first record after it cuts any torn or corrupt log tail.
//
// A store has one writer: nothing locks it against a second process,
// which would interleave records in one log. Readers of the store in
// other processes (statcli -snapshot-dir, statd -watch) go through the
// same loader and never write.
//
// The fault hook points writer.append, writer.delta, log.write and
// writer.publish (plus the snapshot.* hooks inside a checkpoint) let
// the chaos suite kill a load at every stage and assert byte-identical
// recovery.
package writer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"statcube/internal/budget"
	"statcube/internal/cube"
	"statcube/internal/fault"
	"statcube/internal/obs"
	"statcube/internal/qlog"
	"statcube/internal/snapshot"
)

// Write-path metrics, one registration site each:
//
//	writer.loads          loads folded and published
//	writer.delta_cells    view entries touched by delta maintenance
//	writer.retries        load retries after a failed attempt
//	writer.aborted_loads  load attempts that failed (each either
//	                      retried or surfaced as a typed error)
//	writer.publish_ns     wall time per published load (staging → visible)
//	writer.checkpoints    checkpoints written after a publish
//	writer.checkpoint_failures  checkpoints that failed (the next load
//	                      retries; the log keeps the generation durable)
var (
	loadsCounter   = obs.Default().Counter("writer.loads")
	deltaCells     = obs.Default().Counter("writer.delta_cells")
	retriesCounter = obs.Default().Counter("writer.retries")
	abortedLoads   = obs.Default().Counter("writer.aborted_loads")
	publishHist    = obs.Default().Histogram("writer.publish_ns")
	ckptCounter    = obs.Default().Counter("writer.checkpoints")
	ckptFailures   = obs.Default().Counter("writer.checkpoint_failures")
)

// Config sizes a Writer. Zero fields take the documented defaults.
type Config struct {
	// Store is the snapshot store generations are published to. Nil
	// means in-memory generations only — still MVCC, no durability.
	Store *snapshot.Store
	// Name is the snapshot name within the store (required with Store;
	// see snapshot name rules).
	Name string
	// Base seeds an empty store (or a store-less writer) with an initial
	// fact table; ignored when the store already holds a loadable
	// generation. Nil means start empty with Card's dimensions.
	Base *cube.Input
	// Card is the per-dimension cardinality, required when Base is nil.
	// When both are set they must agree.
	Card []int
	// Masks lists the view masks to materialize and delta-maintain
	// beyond the always-present base cuboid.
	Masks []int
	// MaxRetries is how many times a failed load attempt is retried
	// before the error surfaces (default 3; negative means none).
	MaxRetries int
	// Backoff is the first retry's delay, doubling per attempt (default
	// 1ms). Bounded by construction: MaxRetries caps the doubling.
	Backoff time.Duration
	// Sleep is the backoff clock (default time.Sleep; tests inject).
	Sleep func(time.Duration)
	// OnPublish, when non-nil, runs after each generation becomes
	// reader-visible — the serving layer hooks its result-cache
	// invalidation here (live, instead of polling the store).
	OnPublish func(gen uint64)
}

// generation is one published, immutable cube state.
type generation struct {
	gen uint64
	set *cube.MaterializedSet
}

// Writer is the engine's single logical writer: Append folds a batch
// into the next generation and publishes it, Acquire hands out pinned
// read handles. All methods are safe for concurrent use; loads are
// serialized (there is one write path, and concurrent Appends each
// publish their own generation in turn), while Acquire never waits on a
// load.
type Writer struct {
	store      *snapshot.Store
	name       string
	card       []int
	masks      []int
	maxRetries int
	backoff    time.Duration
	sleep      func(time.Duration)
	onPublish  func(uint64)

	// cur is the published generation; pinMu serializes the
	// publish swap against handle acquisition so a reader's store pin
	// can never race the writer's pin hand-over.
	cur   atomic.Pointer[generation]
	pinMu sync.Mutex

	loadMu sync.Mutex // serializes loads

	// The append log, nil without a store, and the newest checkpoint's
	// size, which the log grows to before the next checkpoint. stale is
	// set by Open: files numbered past the opening generation (a
	// diverged history, see logBatch) go before the first record. body
	// is the reused record buffer. All guarded by loadMu.
	log       *snapshot.Log
	ckptBytes int64
	stale     bool
	body      []byte

	loads   atomic.Int64
	retries atomic.Int64
	aborted atomic.Int64
	cells   atomic.Int64

	errMu   sync.Mutex
	lastErr string
}

// Open builds the writer's initial generation: the newest one the store
// recovers to — its newest good checkpoint plus the logs extending it,
// the crash-recovery half of the publish protocol — else a fresh
// materialization of Base (or an empty cube over Card) saved as the
// first checkpoint. Opening a store that holds a generation writes
// nothing; a torn log tail is cut by the first record after it.
func Open(ctx context.Context, cfg Config) (*Writer, error) {
	if cfg.Store != nil && cfg.Name == "" {
		return nil, fmt.Errorf("writer: Config.Name is required with a store")
	}
	card := cfg.Card
	if card == nil && cfg.Base != nil {
		card = cfg.Base.Card
	}
	if len(card) == 0 {
		return nil, fmt.Errorf("writer: Config.Card (or Base) is required")
	}
	if cfg.Base != nil && len(cfg.Base.Card) != len(card) {
		return nil, fmt.Errorf("writer: Base has %d dims, Card %d", len(cfg.Base.Card), len(card))
	}
	w := &Writer{
		store:      cfg.Store,
		name:       cfg.Name,
		card:       append([]int(nil), card...),
		masks:      append([]int(nil), cfg.Masks...),
		maxRetries: cfg.MaxRetries,
		backoff:    cfg.Backoff,
		sleep:      cfg.Sleep,
		onPublish:  cfg.OnPublish,
	}
	if w.maxRetries == 0 {
		w.maxRetries = 3
	} else if w.maxRetries < 0 {
		w.maxRetries = 0
	}
	if w.backoff <= 0 {
		w.backoff = time.Millisecond
	}
	if w.sleep == nil {
		w.sleep = time.Sleep
	}

	w.stale = w.store != nil
	if w.store != nil {
		set, chain, err := cube.RecoverMaterialized(ctx, w.store, w.name)
		if err == nil {
			if got := set.Card(); len(got) != len(w.card) {
				return nil, fmt.Errorf("writer: store generation %d has %d dims, config %d", chain.Gen, len(got), len(w.card))
			}
			if w.log, err = w.store.OpenLog(w.name, chain.Log, chain.LogBytes); err != nil {
				return nil, err
			}
			w.ckptBytes = chain.CheckpointBytes
			if chain.Tail != nil {
				w.setLastErr(chain.Tail) // recovered to the prefix before it
			}
			w.cur.Store(&generation{gen: chain.Gen, set: set})
			w.store.Pin(w.name, chain.Gen)
			return w, nil
		}
		if !errors.Is(err, snapshot.ErrNotFound) {
			return nil, err
		}
	}
	base := cfg.Base
	if base == nil {
		base = &cube.Input{Card: w.card}
	}
	set, err := cube.MaterializeCtx(ctx, base, w.masks)
	if err != nil {
		return nil, err
	}
	g := &generation{gen: 1, set: set}
	if w.store != nil {
		if err := w.checkpoint(ctx, g); err != nil {
			return nil, err
		}
		w.store.Pin(w.name, g.gen)
	}
	w.cur.Store(g)
	return w, nil
}

// Close closes the append log and drops the writer's own pin on the
// current generation; it publishes nothing, since every acknowledged
// Append already has. Outstanding read handles keep their pins.
func (w *Writer) Close(context.Context) error {
	var err error
	w.loadMu.Lock()
	if w.log != nil {
		err = w.log.Close()
	}
	w.loadMu.Unlock()
	w.pinMu.Lock()
	defer w.pinMu.Unlock()
	if w.store != nil {
		if g := w.cur.Load(); g != nil {
			w.store.Unpin(w.name, g.gen)
		}
	}
	return err
}

// Generation returns the published generation number.
func (w *Writer) Generation() uint64 { return w.cur.Load().gen }

// Acquire pins the published generation and returns a read handle on
// it. The pin hand-shake holds a mutex for two map operations and a
// pointer load — never across a load's staging, fold or save — so
// readers are never blocked by the write path. Release the handle when
// the query is done.
func (w *Writer) Acquire() *cube.ReadHandle {
	w.pinMu.Lock()
	g := w.cur.Load()
	if w.store != nil {
		w.store.Pin(w.name, g.gen)
	}
	w.pinMu.Unlock()
	release := func() {}
	if w.store != nil {
		gen := g.gen
		release = func() { w.store.Unpin(w.name, gen) }
	}
	return cube.NewReadHandle(g.set, g.gen, release)
}

// Append loads a batch of coded fact rows: it validates the batch, then
// folds it into a clone of the published generation, logs it and
// publishes the result as the next generation, retrying failed attempts
// with bounded exponential backoff, then writes a checkpoint if one is
// due. It returns nil only once the batch's generation is published and
// durable. An error means no attempt published the batch: it is in no
// generation and no log record, nothing holds it for later, and
// sending it again applies it once. Budget refusals and cancellations
// are the caller's errors and are not retried. An empty batch publishes
// nothing. The rows are read during the call only — the caller's slices
// stay the caller's. Loads are serialized: Append waits for the load
// in progress, Acquire never does.
func (w *Writer) Append(ctx context.Context, rows [][]int, vals []float64) error {
	in := &cube.Input{Card: w.card, Rows: rows, Vals: vals}
	if err := in.Validate(); err != nil || len(rows) == 0 {
		return err
	}
	w.loadMu.Lock()
	defer w.loadMu.Unlock()
	for attempt := 0; ; attempt++ {
		err := w.load(ctx, rows, vals)
		if err == nil {
			w.setLastErr(nil)
			w.checkpointIfDue(ctx)
			return nil
		}
		w.aborted.Add(1)
		if obs.On() {
			abortedLoads.Inc()
		}
		w.setLastErr(err)
		if attempt >= w.maxRetries || !retryable(err) {
			return err
		}
		w.retries.Add(1)
		if obs.On() {
			retriesCounter.Inc()
		}
		w.sleep(w.backoff << uint(attempt))
	}
}

// Flush returns the published generation; every acknowledged Append has
// already published its batch.
func (w *Writer) Flush(context.Context) (uint64, error) { return w.Generation(), nil }

// retryable separates environmental failures (injected faults, torn
// writes, IO errors) — worth a backoff and another attempt — from the
// caller's own budget refusal or cancellation, which a retry can only
// repeat.
func retryable(err error) bool {
	return !errors.Is(err, budget.ErrBudgetExceeded) && !budget.IsCanceled(err)
}

// load is one staged load attempt: clone the published set, fold the
// batch, log it durably, publish. Every failure path discards the
// staging clone whole and leaves no record — the published generation
// is immutable and untouched.
func (w *Writer) load(ctx context.Context, rows [][]int, vals []float64) error {
	//lint:ignore nodeterm feeds the writer.publish_ns histogram and the load flight's wall time; benchdiff diffs neither
	start := time.Now()
	inj := fault.From(ctx)
	var touched int64
	gen, err := func() (uint64, error) {
		if err := inj.Hit(fault.PointWriterAppend); err != nil {
			return 0, err
		}
		cur := w.cur.Load()
		staging := cur.set.Clone()
		var err error
		touched, err = staging.AppendRowsCtx(ctx, rows, vals)
		if err != nil {
			return 0, err
		}
		gen := cur.gen + 1
		if w.log != nil {
			// The commit point: the batch's record, appended and fsynced.
			// A failed append has cut its partial record back off.
			if err := w.logBatch(ctx, gen, rows, vals); err != nil {
				return 0, err
			}
		}
		// The publish window: the record is durable but the generation
		// not yet reader-visible. A crash here replays the record on the
		// next Open. A fault the process survives withdraws the record,
		// so the retry logs the batch once, as this same generation; a
		// record that cannot be withdrawn is committed, and published.
		if err := inj.Hit(fault.PointWriterPublish); err != nil {
			if w.log == nil || w.log.Rewind() == nil {
				return 0, err
			}
		}
		w.pinMu.Lock()
		w.cur.Store(&generation{gen: gen, set: staging})
		if w.store != nil {
			w.store.Pin(w.name, gen)
			w.store.Unpin(w.name, cur.gen)
		}
		w.pinMu.Unlock()
		return gen, nil
	}()
	//lint:ignore nodeterm feeds the writer.publish_ns histogram and the load flight's wall time; benchdiff diffs neither
	wallNs := time.Since(start).Nanoseconds()
	if err == nil {
		w.loads.Add(1)
		w.cells.Add(touched)
		if obs.On() {
			loadsCounter.Inc()
			deltaCells.Add(touched)
			publishHist.Observe(float64(wallNs))
		}
	}
	w.recordFlight(ctx, len(rows), touched, wallNs, err)
	if err == nil && w.onPublish != nil {
		w.onPublish(gen)
	}
	return err
}

// logBatch appends one batch's record to the live log. The first record
// after Open first discards any checkpoint or log numbered past the
// opening generation: only a recovery that stopped short of them (a
// corrupt checkpoint beyond a torn log, or none loadable at all) leaves
// one, and the history they extend is not the one this record
// continues.
func (w *Writer) logBatch(ctx context.Context, gen uint64, rows [][]int, vals []float64) error {
	if w.stale {
		if err := w.store.DiscardAfter(w.name, gen-1); err != nil {
			return err
		}
		w.stale = false
	}
	w.body = cube.AppendBatch(w.body[:0], rows, vals)
	return w.log.Append(ctx, gen, w.body)
}

// checkpointIfDue writes the published generation as a checkpoint once
// the live log has grown to the newest checkpoint's size. The rule comes
// from the data: replay never reads more than about one checkpoint's
// worth of log, and the checkpoints add at most the logged bytes again.
// A failed checkpoint fails nothing — the generation is durable in the
// log, which goes on — and Status reports it until the next load, which
// retries.
func (w *Writer) checkpointIfDue(ctx context.Context) {
	if w.log == nil || w.log.Size() < w.ckptBytes {
		return
	}
	if err := w.checkpoint(ctx, w.cur.Load()); err != nil {
		w.setLastErr(fmt.Errorf("writer: checkpoint: %w", err))
		if obs.On() {
			ckptFailures.Inc()
		}
		return
	}
	if obs.On() {
		ckptCounter.Inc()
	}
}

// checkpoint saves g as the checkpoint at its own generation (pruning
// older ones with their logs) and starts the empty log extending it.
func (w *Writer) checkpoint(ctx context.Context, g *generation) error {
	next, err := w.store.OpenLog(w.name, g.gen, 0)
	if err != nil {
		return err
	}
	n, err := w.store.SaveAt(ctx, w.name, g.gen, func(wr io.Writer) error {
		return cube.EncodeMaterialized(ctx, wr, g.set)
	})
	if err != nil {
		return err
	}
	if w.log != nil {
		// Every record in the old log was synced when it was appended.
		_ = w.log.Close()
	}
	w.log, w.ckptBytes = next, n
	return nil
}

// recordFlight logs one load (or failed attempt) to the flight
// recorder, mirroring the cube builders' build flights.
func (w *Writer) recordFlight(ctx context.Context, rows int, touched int64, wallNs int64, err error) {
	if !qlog.On() {
		return
	}
	rec := &qlog.Record{
		Kind:        "writer.load",
		Node:        "*writer*",
		Fingerprint: fmt.Sprintf("load[dims=%d rows=%d views=%d]", len(w.card), rows, len(w.masks)+1),
		WallNs:      wallNs,
		Cells:       touched,
		Workers:     1,
		Outcome:     qlog.Classify(err, false),
	}
	if err != nil {
		rec.Error = err.Error()
	}
	qlog.Log(ctx, rec)
}

// setLastErr records the most recent load failure for Status (nil
// clears it).
func (w *Writer) setLastErr(err error) {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	if err == nil {
		w.lastErr = ""
	} else {
		w.lastErr = err.Error()
	}
}

// Status is a point-in-time summary of the write path, served by the
// daemon's /healthz.
type Status struct {
	Generation   uint64 `json:"generation"`
	Loads        int64  `json:"loads"`
	Retries      int64  `json:"retries"`
	AbortedLoads int64  `json:"aborted_loads"`
	DeltaCells   int64  `json:"delta_cells"`
	LastError    string `json:"last_error,omitempty"`
}

// Status returns the writer's current counters.
func (w *Writer) Status() Status {
	w.errMu.Lock()
	lastErr := w.lastErr
	w.errMu.Unlock()
	return Status{
		Generation:   w.Generation(),
		Loads:        w.loads.Load(),
		Retries:      w.retries.Load(),
		AbortedLoads: w.aborted.Load(),
		DeltaCells:   w.cells.Load(),
		LastError:    lastErr,
	}
}
