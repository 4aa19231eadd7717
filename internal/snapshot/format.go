// Package snapshot is the engine's durable storage path: a versioned,
// checksummed binary container for cube and materialized-view state, a
// Store of numbered checkpoint generations whose writes are crash-atomic
// and whose reads recover to the last good checkpoint, and the append
// log beside each checkpoint that holds the generations published after
// it.
//
// The paper's closing argument is that the Statistical Object should be
// a first-class database citizen — and a database survives crashes, torn
// writes and bad bytes. Szépkúti's scalability study shows the physical
// representation dominates at scale, and [GB+96]'s data-cube operator
// assumes cube results persist and are reloaded; both presuppose exactly
// this layer.
//
// On-disk layout, per snapshot name in the store's directory:
//
//	<name>.<gen>.snap  checkpoint: the whole state at generation gen,
//	                   in the container format below
//	<name>.<gen>.log   the log extending checkpoint gen: one record per
//	                   generation published after it, oldest first
//
// Container format (all integers little-endian):
//
//	header   "STCB" | u16 version | u16 flags | u32 CRC32C(previous 8 bytes)
//	section  u8 kind | u64 payload length | payload | u32 CRC32C(kind+length+payload)
//	...
//	end      section with kind 0xFF and empty payload
//
// Section kinds are owned by the caller (internal/cube registers its
// own); kind 0xFF is reserved for the end marker. Every decode failure —
// bad magic, wrong version, a flipped bit, a truncated tail, trailing
// garbage — is a typed *CorruptError matching the ErrCorrupt sentinel,
// never a panic: the decoder is the boundary where bad bytes from disk
// become clean errors, so it validates instead of trusting (the
// recoverboundary statlint analyzer keeps recover() out of here).
//
// Log format (little-endian), framed like the container's sections:
//
//	header   "STCL" | u16 version | u16 flags | u64 base generation | u32 CRC32C(previous 16 bytes)
//	record   u8 kind 1 | u64 payload length | payload | u32 CRC32C(kind+length+payload)
//	payload  u64 generation | body
//
// The records of the log extending checkpoint g carry generations g+1,
// g+2, … in order; the body is the caller's (internal/cube's coded
// batch). A log has no end marker: it ends after its last whole record,
// and a record cut short, failing its CRC or out of generation order
// ends the valid prefix — what follows is a torn or corrupt tail, which
// recovery stops at and the next append cuts. A checkpoint written at
// the generation a log reached starts the next log, so recovery loads
// the newest good checkpoint and walks the logs from it (ReplayLogs);
// pruning removes a checkpoint together with its log.
//
// A store has one writer. Nothing locks it: a second process appending
// to the same name would interleave records in one log. Readers in any
// number of processes only read.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"statcube/internal/obs"
)

// Format constants.
const (
	// Magic opens every snapshot file.
	Magic = "STCB"
	// Version is the current format version; decoders reject anything
	// newer or older (no migration paths exist yet).
	Version = 1
	// EndKind is the reserved section kind closing a snapshot.
	EndKind = 0xFF
	// DefaultMaxSection caps a single decoded section payload: a length
	// field beyond it is treated as corruption before any allocation, so
	// a flipped length bit cannot OOM the decoder.
	DefaultMaxSection = 64 << 20
)

// headerSize is Magic + version + flags + header CRC.
const headerSize = len(Magic) + 2 + 2 + 4

// castagnoli is the CRC32C table ([RFC 3720]'s polynomial — the one
// storage systems use, with hardware support on current CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Error taxonomy. Every decode or recovery failure matches exactly one
// sentinel via errors.Is.
var (
	// ErrCorrupt marks bytes that are not a valid snapshot: bad magic,
	// version mismatch, checksum failure, truncation, trailing garbage.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrNotFound marks a Store load with no snapshot generations at all.
	ErrNotFound = errors.New("snapshot: not found")
)

// CorruptError is one detected corruption: what failed and the byte
// offset the decoder had reached.
type CorruptError struct {
	Detail string
	Offset int64
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("snapshot: corrupt at byte %d: %s", e.Offset, e.Detail)
}

// Is matches the ErrCorrupt sentinel.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// Durability metrics:
//
//	snapshot.sections_written  sections encoded
//	snapshot.sections_read     sections decoded and CRC-verified
//	snapshot.bytes_written     bytes emitted by encoders
//	snapshot.bytes_read        bytes consumed by decoders
var (
	sectionsWritten = obs.Default().Counter("snapshot.sections_written")
	sectionsRead    = obs.Default().Counter("snapshot.sections_read")
	bytesWritten    = obs.Default().Counter("snapshot.bytes_written")
	bytesRead       = obs.Default().Counter("snapshot.bytes_read")
)

// Encoder writes the snapshot container format. Methods are not safe for
// concurrent use. The writer is used as given — wrap it with
// fault.Injector.Writer upstream to exercise torn writes and bit-flips.
type Encoder struct {
	w        io.Writer
	off      int64
	sections int64
	closed   bool
}

// NewEncoder writes the header and returns an encoder for the sections.
func NewEncoder(w io.Writer) (*Encoder, error) {
	e := &Encoder{w: w}
	var hdr [headerSize]byte
	copy(hdr[:], Magic)
	binary.LittleEndian.PutUint16(hdr[4:], Version)
	binary.LittleEndian.PutUint16(hdr[6:], 0)
	binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(hdr[:8], castagnoli))
	if err := e.emit(hdr[:]); err != nil {
		return nil, err
	}
	return e, nil
}

// Section writes one checksummed section.
func (e *Encoder) Section(kind uint8, payload []byte) error {
	if e.closed {
		return errors.New("snapshot: Section after Close")
	}
	if kind == EndKind {
		return errors.New("snapshot: section kind 0xFF is reserved for the end marker")
	}
	if err := e.section(kind, payload); err != nil {
		return err
	}
	e.sections++
	if obs.On() {
		sectionsWritten.Inc()
	}
	return nil
}

// Close writes the end marker. The encoder is unusable afterwards.
func (e *Encoder) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	return e.section(EndKind, nil)
}

// Sections returns how many payload sections have been written.
func (e *Encoder) Sections() int64 { return e.sections }

// frameHeaderSize and frameTailSize bound one section frame: kind and
// length before the payload, CRC32C after it. The append log frames its
// records the same way.
const (
	frameHeaderSize = 1 + 8
	frameTailSize   = 4
)

// frameHeader is a section's kind | u64 payload length.
func frameHeader(kind uint8, n int) [frameHeaderSize]byte {
	var hdr [frameHeaderSize]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint64(hdr[1:], uint64(n))
	return hdr
}

// frameCRC is the CRC32C a section frame closes with: over its header
// and payload.
func frameCRC(hdr, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr, castagnoli), castagnoli, payload)
}

// section emits kind | length | payload | CRC32C.
func (e *Encoder) section(kind uint8, payload []byte) error {
	hdr := frameHeader(kind, len(payload))
	if err := e.emit(hdr[:]); err != nil {
		return err
	}
	if err := e.emit(payload); err != nil {
		return err
	}
	var tail [frameTailSize]byte
	binary.LittleEndian.PutUint32(tail[:], frameCRC(hdr[:], payload))
	return e.emit(tail[:])
}

// emit writes b fully, tracking offsets and the bytes-written counter.
func (e *Encoder) emit(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	n, err := e.w.Write(b)
	e.off += int64(n)
	if obs.On() {
		bytesWritten.Add(int64(n))
	}
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	return err
}

// Decoder reads and validates the snapshot container format. It never
// panics on hostile input and never allocates more than MaxSection bytes
// for one payload; every malformation is a typed *CorruptError.
type Decoder struct {
	r    io.Reader
	off  int64
	done bool
	buf  []byte // the payload buffer, reused across sections
	// MaxSection caps one payload allocation; zero means
	// DefaultMaxSection. Lower it when decoding untrusted or
	// memory-budgeted input.
	MaxSection int64
}

// NewDecoder validates the header and returns a decoder for the sections.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{r: r}
	var hdr [headerSize]byte
	if err := d.fill(hdr[:], "header"); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != Magic {
		return nil, d.corrupt("bad magic %q", hdr[:4])
	}
	if got := crc32.Checksum(hdr[:8], castagnoli); got != binary.LittleEndian.Uint32(hdr[8:]) {
		return nil, d.corrupt("header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != Version {
		return nil, d.corrupt("version %d, decoder speaks %d", v, Version)
	}
	return d, nil
}

// Next returns the next section. After the end marker it verifies the
// stream is exhausted and returns io.EOF; truncation before the end
// marker, a checksum mismatch, an oversized length, or trailing bytes
// all return *CorruptError. The payload is read into one buffer the
// decoder reuses, grown to the largest section so far, so it is valid
// only until the next call to Next: a caller that keeps it copies it.
func (d *Decoder) Next() (uint8, []byte, error) {
	if d.done {
		return 0, nil, io.EOF
	}
	var hdr [frameHeaderSize]byte
	if err := d.fill(hdr[:], "section header"); err != nil {
		return 0, nil, err
	}
	kind := hdr[0]
	length := binary.LittleEndian.Uint64(hdr[1:])
	maxLen := d.MaxSection
	if maxLen <= 0 {
		maxLen = DefaultMaxSection
	}
	if length > uint64(maxLen) {
		return 0, nil, d.corrupt("section length %d exceeds cap %d", length, maxLen)
	}
	if kind == EndKind && length != 0 {
		return 0, nil, d.corrupt("end marker with %d payload bytes", length)
	}
	var payload []byte
	if length > 0 {
		if uint64(cap(d.buf)) < length {
			d.buf = make([]byte, length)
		}
		payload = d.buf[:length]
		if err := d.fill(payload, "section payload"); err != nil {
			return 0, nil, err
		}
	}
	var tail [frameTailSize]byte
	if err := d.fill(tail[:], "section checksum"); err != nil {
		return 0, nil, err
	}
	if frameCRC(hdr[:], payload) != binary.LittleEndian.Uint32(tail[:]) {
		return 0, nil, d.corrupt("section checksum mismatch (kind %d, %d bytes)", kind, length)
	}
	if kind == EndKind {
		d.done = true
		var one [1]byte
		if n, _ := io.ReadFull(d.r, one[:]); n != 0 {
			return 0, nil, d.corrupt("trailing data after end marker")
		}
		return 0, nil, io.EOF
	}
	if obs.On() {
		sectionsRead.Inc()
	}
	return kind, payload, nil
}

// fill reads exactly len(b) bytes; a short read is truncation.
func (d *Decoder) fill(b []byte, what string) error {
	n, err := io.ReadFull(d.r, b)
	d.off += int64(n)
	if obs.On() && n > 0 {
		bytesRead.Add(int64(n))
	}
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return d.corrupt("truncated %s (%d of %d bytes)", what, n, len(b))
		}
		return err
	}
	return nil
}

// corrupt builds a typed corruption error at the current offset.
func (d *Decoder) corrupt(format string, args ...any) error {
	return &CorruptError{Detail: fmt.Sprintf(format, args...), Offset: d.off}
}
