package snapshot

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"statcube/internal/fault"
	"statcube/internal/obs"
)

// Store durability metrics:
//
//	snapshot.saves             generations written successfully
//	snapshot.loads             loads served (from any generation)
//	snapshot.corrupt_detected  generations rejected by the decoder
//	snapshot.recovered         loads served by an older generation after
//	                           skipping corrupt newer ones
var (
	savesCounter    = obs.Default().Counter("snapshot.saves")
	loadsCounter    = obs.Default().Counter("snapshot.loads")
	corruptDetected = obs.Default().Counter("snapshot.corrupt_detected")
	recoveredLoads  = obs.Default().Counter("snapshot.recovered")
)

// WriteFileCtx writes path atomically and durably: the content goes to a
// temp file in the same directory, is fsynced, then renamed over path,
// and the directory is fsynced — a crash at any step leaves either the
// old file or the new one, never a torn mix. The context's fault
// injector participates at the documented hooks: snapshot.write (the
// data writer — torn writes and bit-flips land here), and
// snapshot.rename (the window after the synced temp file exists and
// before it becomes visible — the classic crash point the Store's
// recovery is built for). On any failure the temp file is removed
// (except when the process dies inside the crash window, which is the
// point) and path is untouched.
func WriteFileCtx(ctx context.Context, path string, write func(io.Writer) error) (err error) {
	inj := fault.From(ctx)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(inj.Writer(fault.PointSnapshotWrite, tmp)); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	// The crash window: temp data is durable but invisible. A panic-mode
	// injection here kills the process exactly where a power cut would.
	if err = inj.Hit(fault.PointSnapshotRename); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Store keeps named snapshots as numbered checkpoint generations in one
// directory (name.00000001.snap, name.00000002.snap, …), each with the
// log extending it (name.00000001.log, …; see the package doc). Saves
// are crash-atomic and never overwrite; loads walk checkpoints
// newest-first and recover past corrupt or truncated ones to the last
// good one, and ReplayLogs walks the logs from there.
type Store struct {
	dir string
	// Keep is how many checkpoints Save and SaveAt retain per name, each
	// with its log (older ones are pruned best-effort). Values < 1 mean
	// the default of 2 — the newest plus one fallback.
	Keep int

	// pinMu guards pins: refcounts of (name, generation) pairs a reader
	// currently holds. Save's pruning never removes a pinned generation,
	// whatever Keep says — MVCC readers pin the generation they answer
	// from, so a long query can outlive several publishes without its
	// snapshot being deleted out from under it.
	pinMu sync.Mutex
	pins  map[pinKey]int
}

type pinKey struct {
	name string
	gen  uint64
}

// OpenStore creates (if needed) and opens a snapshot directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, pins: map[pinKey]int{}}, nil
}

// Pin marks one generation of name as in use by a reader: Save's pruning
// will not remove it until a matching Unpin. Pins nest — each Pin needs
// its own Unpin. Pinning is advisory bookkeeping against this Store
// handle, not the filesystem: a second process with its own Store does
// not observe it.
func (s *Store) Pin(name string, gen uint64) {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	if s.pins == nil {
		s.pins = map[pinKey]int{}
	}
	s.pins[pinKey{name, gen}]++
}

// Unpin releases one Pin. Unpinning below zero panics — an unbalanced
// release is a reader lifecycle bug, not a recoverable state.
func (s *Store) Unpin(name string, gen uint64) {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	k := pinKey{name, gen}
	n := s.pins[k] - 1
	if n < 0 {
		panic(fmt.Sprintf("snapshot: unbalanced Unpin of %s generation %d", name, gen))
	}
	if n == 0 {
		delete(s.pins, k)
	} else {
		s.pins[k] = n
	}
}

// pinnedIn reports whether a generation in [lo, hi) is pinned.
func (s *Store) pinnedIn(name string, lo, hi uint64) bool {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	for k := range s.pins {
		if k.name == name && lo <= k.gen && k.gen < hi {
			return true
		}
	}
	return false
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// checkName rejects names that would escape the store directory or
// collide with the generation syntax.
func checkName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\.") {
		return fmt.Errorf("snapshot: invalid snapshot name %q", name)
	}
	return nil
}

// genPath builds the file path of one generation's checkpoint.
func (s *Store) genPath(name string, gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.%08d.snap", name, gen))
}

// logPath builds the file path of the log extending checkpoint gen.
func (s *Store) logPath(name string, gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.%08d.log", name, gen))
}

// Generations returns the on-disk checkpoint generation numbers for
// name, ascending. Temp files, logs and foreign names are ignored.
func (s *Store) Generations(name string) ([]uint64, error) {
	return s.list(name, ".snap")
}

// list returns the generation numbers of name's files with the given
// suffix, ascending.
func (s *Store) list(name, suffix string) ([]uint64, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	prefix := name + "."
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasPrefix(fn, prefix) || !strings.HasSuffix(fn, suffix) {
			continue
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(fn, prefix), suffix)
		gen, err := strconv.ParseUint(mid, 10, 64)
		if err != nil || mid == "" {
			continue
		}
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Save writes the next generation of name atomically (see WriteFileCtx
// for the crash and fault-injection contract) and prunes old generations
// beyond Keep. It returns the new generation number; on failure no new
// generation becomes visible and nothing is pruned.
func (s *Store) Save(ctx context.Context, name string, write func(io.Writer) error) (uint64, error) {
	gens, err := s.Generations(name)
	if err != nil {
		return 0, err
	}
	next := uint64(1)
	if len(gens) > 0 {
		next = gens[len(gens)-1] + 1
	}
	if err := s.saveAt(ctx, name, next, gens, write); err != nil {
		return 0, err
	}
	return next, nil
}

// SaveAt writes a checkpoint of name at generation gen, atomically, and
// prunes as Save does. Unlike Save it does not pick the number: the
// writer checkpoints a generation it has already published through the
// log. It returns the checkpoint's size in bytes.
func (s *Store) SaveAt(ctx context.Context, name string, gen uint64, write func(io.Writer) error) (int64, error) {
	gens, err := s.Generations(name)
	if err != nil {
		return 0, err
	}
	if err := s.saveAt(ctx, name, gen, gens, write); err != nil {
		return 0, err
	}
	fi, err := os.Stat(s.genPath(name, gen))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// saveAt writes checkpoint gen over the existing checkpoints gens
// (ascending) and prunes. A log already named after gen would extend
// some earlier history, so it goes first: a new checkpoint starts with
// no log.
func (s *Store) saveAt(ctx context.Context, name string, gen uint64, gens []uint64, write func(io.Writer) error) error {
	if err := os.Remove(s.logPath(name, gen)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := WriteFileCtx(ctx, s.genPath(name, gen), write); err != nil {
		return err
	}
	if obs.On() {
		savesCounter.Inc()
	}
	if i, found := slices.BinarySearch(gens, gen); !found {
		gens = slices.Insert(gens, i, gen)
	}
	s.prune(name, gens)
	return nil
}

// prune removes, best-effort, every checkpoint but the newest Keep of
// gens (ascending) together with the log that extends it. A checkpoint
// stays whatever Keep says while a reader pins a generation it or its
// log holds — one from it up to the next checkpoint — so a reader
// answering from an older generation keeps its files until it unpins
// (the next unpinned save sweeps them).
func (s *Store) prune(name string, gens []uint64) {
	keep := s.Keep
	if keep < 1 {
		keep = 2
	}
	for i := 0; i+keep < len(gens); i++ {
		if s.pinnedIn(name, gens[i], gens[i+1]) {
			continue
		}
		os.Remove(s.genPath(name, gens[i]))
		os.Remove(s.logPath(name, gens[i]))
	}
}

// DiscardAfter removes every checkpoint and log of name numbered past
// gen. A writer calls it before its first record when recovery stopped
// short of files on disk (a corrupt checkpoint beyond a torn log): those
// files extend a history the writer no longer continues, and a later
// recovery must not splice them into the one it does.
func (s *Store) DiscardAfter(name string, gen uint64) error {
	removed := false
	for _, suffix := range []string{".snap", ".log"} {
		gens, err := s.list(name, suffix)
		if err != nil {
			return err
		}
		for _, g := range gens {
			if g <= gen {
				continue
			}
			path := s.genPath(name, g)
			if suffix == ".log" {
				path = s.logPath(name, g)
			}
			if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			removed = true
		}
	}
	if !removed {
		return nil
	}
	return syncDir(s.dir)
}

// Load opens generations of name newest-first and hands each to read
// until one succeeds, returning its generation number. A read failure
// matching ErrCorrupt (or a vanished/unreadable file) skips to the next
// older generation — recovery to the last good snapshot — while any
// other failure (a budget refusal, a cancellation) aborts immediately:
// those are the caller's errors, not bad bytes. With no generations at
// all Load returns ErrNotFound; when every generation is corrupt it
// returns the newest generation's corruption error.
func (s *Store) Load(ctx context.Context, name string, read func(io.Reader) error) (uint64, error) {
	gens, err := s.Generations(name)
	if err != nil {
		return 0, err
	}
	if len(gens) == 0 {
		return 0, fmt.Errorf("%w: %s in %s", ErrNotFound, name, s.dir)
	}
	inj := fault.From(ctx)
	var firstCorrupt error
	for i := len(gens) - 1; i >= 0; i-- {
		if err := inj.Hit(fault.PointSnapshotRead); err != nil {
			return 0, err
		}
		err := s.loadGen(name, gens[i], read)
		if err == nil {
			if obs.On() {
				loadsCounter.Inc()
				if i != len(gens)-1 {
					recoveredLoads.Inc()
				}
			}
			return gens[i], nil
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, fs.ErrNotExist) {
			return 0, err
		}
		if obs.On() {
			corruptDetected.Inc()
		}
		if firstCorrupt == nil {
			firstCorrupt = fmt.Errorf("generation %d of %s: %w", gens[i], name, err)
		}
	}
	return 0, firstCorrupt
}

// loadGen opens one generation file and applies read to it through a
// buffer, so that a section's small reads — its frame header and its
// CRC — cost no read call of their own; a payload larger than the
// buffer is read straight into the decoder's slice.
func (s *Store) loadGen(name string, gen uint64, read func(io.Reader) error) error {
	f, err := os.Open(s.genPath(name, gen))
	if err != nil {
		return err
	}
	defer f.Close()
	return read(bufio.NewReader(f))
}
