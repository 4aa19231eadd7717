package snapshot

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"statcube/internal/fault"
	"statcube/internal/obs"
)

// Log format constants. A log is a header and then records, each one
// section frame (the container's framing, see the package doc) whose
// payload is the record's generation and the caller's body.
const (
	// LogMagic opens every log file.
	LogMagic = "STCL"
	// LogVersion is the current log format version.
	LogVersion = 1
	// logRecordKind is the one frame kind a log holds.
	logRecordKind = 1
	// logGenSize is the generation that opens each record's payload.
	logGenSize = 8
)

// logHeaderSize is LogMagic + version + flags + base generation + CRC.
const logHeaderSize = len(LogMagic) + 2 + 2 + 8 + 4

// Log metrics (the bytes count in snapshot.bytes_written and
// snapshot.bytes_read beside the checkpoints'):
//
//	snapshot.log_records  records appended and synced
var logRecords = obs.Default().Counter("snapshot.log_records")

// appendLogHeader appends the header of the log extending checkpoint
// base.
func appendLogHeader(dst []byte, base uint64) []byte {
	start := len(dst)
	dst = append(dst, LogMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, LogVersion)
	dst = binary.LittleEndian.AppendUint16(dst, 0)
	dst = binary.LittleEndian.AppendUint64(dst, base)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// ScanLog walks the image of the log extending checkpoint base. It hands
// fn each record of the valid prefix in order — its generation (base+1,
// then one more each) and its body — and returns the last generation
// reached (base when there is none) and the prefix's length in bytes.
// err is nil when the image ends on a record boundary (an empty image is
// an empty log). Otherwise it is what ended the prefix: a *CorruptError
// for a torn header or record, a checksum mismatch or a generation out
// of order, or the first error fn returned — a record fn rejects ends
// the prefix too. ScanLog allocates nothing: bodies are sub-slices of
// data, and no length field is trusted beyond the bytes that follow it.
func ScanLog(data []byte, base uint64, fn func(gen uint64, body []byte) error) (last uint64, valid int64, err error) {
	last = base
	if len(data) == 0 {
		return last, 0, nil
	}
	corrupt := func(off int, format string, args ...any) error {
		return &CorruptError{Detail: "log: " + fmt.Sprintf(format, args...), Offset: int64(off)}
	}
	if len(data) < logHeaderSize {
		return last, 0, corrupt(0, "torn header (%d of %d bytes)", len(data), logHeaderSize)
	}
	hdr := data[:logHeaderSize]
	switch {
	case string(hdr[:4]) != LogMagic:
		return last, 0, corrupt(0, "bad magic %q", hdr[:4])
	case crc32.Checksum(hdr[:logHeaderSize-4], castagnoli) != binary.LittleEndian.Uint32(hdr[logHeaderSize-4:]):
		return last, 0, corrupt(0, "header checksum mismatch")
	case binary.LittleEndian.Uint16(hdr[4:]) != LogVersion:
		return last, 0, corrupt(0, "version %d, reader speaks %d", binary.LittleEndian.Uint16(hdr[4:]), LogVersion)
	case binary.LittleEndian.Uint64(hdr[8:]) != base:
		return last, 0, corrupt(0, "log extends generation %d, want %d", binary.LittleEndian.Uint64(hdr[8:]), base)
	}
	off := logHeaderSize
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeaderSize+frameTailSize {
			return last, int64(off), corrupt(off, "torn record (%d bytes)", len(rest))
		}
		if rest[0] != logRecordKind {
			return last, int64(off), corrupt(off, "record kind %d", rest[0])
		}
		n := binary.LittleEndian.Uint64(rest[1:])
		if room := uint64(len(rest) - frameHeaderSize - frameTailSize); n > room {
			return last, int64(off), corrupt(off, "torn record (%d payload bytes claimed, %d left)", n, room)
		}
		if n < logGenSize {
			return last, int64(off), corrupt(off, "record of %d bytes has no generation", n)
		}
		payload := rest[frameHeaderSize : frameHeaderSize+n]
		if frameCRC(rest[:frameHeaderSize], payload) != binary.LittleEndian.Uint32(rest[frameHeaderSize+n:]) {
			return last, int64(off), corrupt(off, "record checksum mismatch")
		}
		gen := binary.LittleEndian.Uint64(payload)
		if gen != last+1 {
			return last, int64(off), corrupt(off, "record generation %d after %d", gen, last)
		}
		if err := fn(gen, payload[logGenSize:]); err != nil {
			return last, int64(off), err
		}
		last = gen
		off += frameHeaderSize + int(n) + frameTailSize
	}
	return last, int64(off), nil
}

// Chain is where a checkpoint and the logs extending it lead.
type Chain struct {
	// Checkpoint is the generation of the checkpoint the chain starts
	// from, and CheckpointBytes its file's size.
	Checkpoint      uint64
	CheckpointBytes int64
	// Gen is the generation the last good record reached: Checkpoint
	// when no log holds one.
	Gen uint64
	// Log names the log the next record goes to (the checkpoint
	// generation it extends) and LogBytes is the length of its valid
	// prefix; anything past it is a torn or corrupt tail to cut before
	// the next record.
	Log      uint64
	LogBytes int64
	// Tail is the torn or corrupt record the walk stopped at (it
	// matches ErrCorrupt), nil when every log ended cleanly.
	Tail error
}

// ReplayLogs walks the logs extending checkpoint gen of name, oldest
// record first: the log named after gen, then the log named after the
// generation its last good record reached, and so on — a checkpoint
// written at that generation starts the next log. fn gets each record's
// generation and body (see ScanLog). A torn or corrupt record, or one fn
// rejects with an error matching ErrCorrupt, ends its log's valid
// prefix; Chain.Tail reports it. The error return is for what bad bytes
// do not explain: an unreadable file, or an fn error that does not match
// ErrCorrupt.
func (s *Store) ReplayLogs(name string, gen uint64, fn func(gen uint64, body []byte) error) (Chain, error) {
	c := Chain{Checkpoint: gen, Gen: gen, Log: gen}
	if err := checkName(name); err != nil {
		return c, err
	}
	if fi, err := os.Stat(s.genPath(name, gen)); err == nil {
		c.CheckpointBytes = fi.Size()
	}
	for {
		data, err := os.ReadFile(s.logPath(name, c.Gen))
		if errors.Is(err, fs.ErrNotExist) {
			return c, nil
		}
		if err != nil {
			return c, err
		}
		if obs.On() {
			bytesRead.Add(int64(len(data)))
		}
		base := c.Gen
		c.Log = base
		c.Gen, c.LogBytes, err = ScanLog(data, base, fn)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				return c, err
			}
			if obs.On() {
				corruptDetected.Inc()
			}
			c.Tail = fmt.Errorf("log %d of %s: %w", base, name, err)
		}
		if c.Gen == base {
			return c, nil
		}
	}
}

// Log is the live append log of one snapshot name: the log extending
// its newest checkpoint, where a writer's records go. Append is the
// write path's commit point — a record is durable when it returns nil.
// A Log is not safe for concurrent use; one writer owns it, and a store
// has one writer (see the package doc).
type Log struct {
	path  string
	base  uint64
	f     *os.File // nil until the first Append, and after a failed cut
	size  int64    // bytes of the header and whole, synced records
	prev  int64    // size before the last Append, for Rewind
	frame []byte   // reused record buffer
}

// OpenLog returns the log extending checkpoint base of name, whose valid
// prefix is valid bytes long (Chain.LogBytes after a recovery; 0 for a
// new checkpoint). Nothing is opened or written until the first Append,
// which cuts any torn or corrupt tail past the prefix before it writes,
// and creates the file when there is none.
func (s *Store) OpenLog(name string, base uint64, valid int64) (*Log, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	return &Log{path: s.logPath(name, base), base: base, size: valid, prev: valid}, nil
}

// Size returns the log's committed length in bytes.
func (l *Log) Size() int64 { return l.size }

// Append writes one record — gen and body in one section frame, behind
// the header when the log is empty — and fsyncs it. The context's fault
// injector fires at log.write before the write and wraps the file's
// writer. On any failure the log is cut back to its previous length, so
// a failed Append leaves no record and the next one follows a valid
// prefix; if even the cut fails, the file is dropped and the next Append
// reopens it and cuts first.
func (l *Log) Append(ctx context.Context, gen uint64, body []byte) error {
	inj := fault.From(ctx)
	if err := inj.Hit(fault.PointLogWrite); err != nil {
		return err
	}
	if err := l.open(); err != nil {
		return err
	}
	frame := l.frame[:0]
	if l.size == 0 {
		frame = appendLogHeader(frame, l.base)
	}
	start := len(frame)
	hdr := frameHeader(logRecordKind, logGenSize+len(body))
	frame = append(frame, hdr[:]...)
	frame = binary.LittleEndian.AppendUint64(frame, gen)
	frame = append(frame, body...)
	frame = binary.LittleEndian.AppendUint32(frame, frameCRC(hdr[:], frame[start+frameHeaderSize:]))
	l.frame = frame
	n, err := inj.Writer(fault.PointLogWrite, io.NewOffsetWriter(l.f, l.size)).Write(frame)
	if obs.On() {
		bytesWritten.Add(int64(n))
	}
	if err == nil && n < len(frame) {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.cut(l.size)
		return err
	}
	l.prev, l.size = l.size, l.size+int64(len(frame))
	if obs.On() {
		logRecords.Inc()
	}
	return nil
}

// Rewind withdraws the record the last Append wrote: the log is cut back
// to where it ended before it. A writer rewinds when a load fails after
// its record was written but before it was published. An error means
// the record could not be withdrawn and stays committed.
func (l *Log) Rewind() error {
	if l.f == nil {
		return fmt.Errorf("snapshot: log %s: rewind with no open file", l.path)
	}
	if err := l.f.Truncate(l.prev); err != nil {
		l.drop()
		return err
	}
	// Cut is what makes the record gone for this process; the sync makes
	// it gone for a restart too. If the sync fails, a crash may bring
	// back a record no client was told about — never one it was.
	l.size = l.prev
	if err := l.f.Sync(); err != nil {
		l.drop()
	}
	return nil
}

// Close releases the log's file.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// open opens the file for the next record, creating it (and syncing the
// directory, so the name is as durable as the record) or cutting it to
// the committed size.
func (l *Log) open() error {
	if l.f != nil {
		return nil
	}
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() < l.size {
		err = fmt.Errorf("snapshot: log %s holds %d bytes, %d committed", l.path, fi.Size(), l.size)
	}
	if err == nil && fi.Size() > l.size {
		if err = f.Truncate(l.size); err == nil {
			err = f.Sync()
		}
	}
	if err == nil && l.size == 0 {
		err = syncDir(filepath.Dir(l.path))
	}
	if err != nil {
		_ = f.Close() // the open's own error is the one to report
		return err
	}
	l.f = f
	return nil
}

// cut truncates the file back to size after a failed append; if that
// fails, the file is dropped for the next open to cut.
func (l *Log) cut(size int64) {
	if err := l.f.Truncate(size); err != nil {
		l.drop()
		return
	}
	if err := l.f.Sync(); err != nil {
		l.drop()
	}
}

// drop closes the file without reporting: it is dropped because a cut
// failed, and that error is the one the caller reports.
func (l *Log) drop() {
	_ = l.f.Close()
	l.f = nil
}
