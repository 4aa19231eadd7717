package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// encodeSnapshot builds a valid snapshot with the given sections.
func encodeSnapshot(t *testing.T, sections ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range sections {
		if err := enc.Section(uint8(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAll drains a snapshot, returning the sections or the first error.
// A payload is valid only until the next Next, so each is cloned.
func decodeAll(b []byte) ([][]byte, error) {
	dec, err := NewDecoder(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for {
		_, payload, err := dec.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, bytes.Clone(payload))
	}
}

// TestRoundTrip: sections come back byte-identical, in order, typed by kind.
func TestRoundTrip(t *testing.T) {
	want := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{0xAB}, 4096)}
	blob := encodeSnapshot(t, want...)
	got, err := decodeAll(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d sections, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("section %d mismatch", i)
		}
	}
}

// TestPayloadReused: sections decode into one buffer, grown only for a
// section larger than every one before it, and each payload still reads
// back exactly.
func TestPayloadReused(t *testing.T) {
	want := [][]byte{[]byte("alpha"), []byte("beta"), bytes.Repeat([]byte{0xAB}, 4096), []byte("gamma")}
	dec, err := NewDecoder(bytes.NewReader(encodeSnapshot(t, want...)))
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for i, w := range want {
		_, payload, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, w) {
			t.Fatalf("section %d: %q, want %q", i, payload, w)
		}
		switch i {
		case 1:
			if &payload[0] != &prev[0] {
				t.Error("a smaller section did not reuse the payload buffer")
			}
		case 3:
			if cap(payload) < 4096 {
				t.Errorf("the buffer shrank to %d bytes after a 4096-byte section", cap(payload))
			}
		}
		prev = payload
	}
	if _, _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after the last section: %v, want io.EOF", err)
	}
}

// TestEveryBitFlipDetected: flipping any single bit anywhere in a small
// snapshot must surface as ErrCorrupt — the CRC coverage has no gaps.
func TestEveryBitFlipDetected(t *testing.T) {
	blob := encodeSnapshot(t, []byte("payload under test"))
	for byteIdx := range blob {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(blob)
			mut[byteIdx] ^= 1 << bit
			if _, err := decodeAll(mut); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip byte %d bit %d: err = %v, want ErrCorrupt", byteIdx, bit, err)
			}
		}
	}
}

// TestEveryTruncationDetected: cutting the snapshot at any byte boundary
// short of the full length is corruption, never a silent partial decode.
func TestEveryTruncationDetected(t *testing.T) {
	blob := encodeSnapshot(t, []byte("first"), []byte("second"))
	for cut := 0; cut < len(blob); cut++ {
		_, err := decodeAll(blob[:cut])
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestTrailingGarbage: bytes after the end marker are corruption — a
// concatenated or half-overwritten file must not decode cleanly.
func TestTrailingGarbage(t *testing.T) {
	blob := append(encodeSnapshot(t, []byte("x")), 0x00)
	if _, err := decodeAll(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: err = %v, want ErrCorrupt", err)
	}
}

// TestBadMagicAndVersion: foreign files and future formats are rejected
// with typed errors carrying the reason.
func TestBadMagicAndVersion(t *testing.T) {
	blob := encodeSnapshot(t, []byte("x"))

	wrongMagic := bytes.Clone(blob)
	copy(wrongMagic, "NOPE")
	if _, err := NewDecoder(bytes.NewReader(wrongMagic)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v", err)
	}

	// A version bump with a recomputed valid header CRC must still be
	// rejected: the decoder speaks exactly one version.
	futureVersion := bytes.Clone(blob)
	futureVersion[4] = 2
	rewriteHeaderCRC(futureVersion)
	_, err := NewDecoder(bytes.NewReader(futureVersion))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("future version: err = %v, want *CorruptError", err)
	}
}

// rewriteHeaderCRC recomputes the header checksum after a header edit.
func rewriteHeaderCRC(blob []byte) {
	binary.LittleEndian.PutUint32(blob[8:], crc32.Checksum(blob[:8], castagnoli))
}

// TestOversizedLengthRejectedBeforeAllocation: a corrupted length field
// claiming more than MaxSection must fail without attempting the
// allocation — decoding hostile input is memory-bounded.
func TestOversizedLengthRejectedBeforeAllocation(t *testing.T) {
	blob := encodeSnapshot(t, []byte("x"))
	// Section header starts right after the 12-byte file header:
	// kind (1 byte) then u64 length at offset 13.
	mut := bytes.Clone(blob)
	for i := 0; i < 8; i++ {
		mut[headerSize+1+i] = 0xFF
	}
	dec, err := NewDecoder(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	dec.MaxSection = 1 << 10
	_, _, err = dec.Next()
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("oversized length: err = %v, want *CorruptError", err)
	}
}

// TestReservedKind: encoders may not emit the end-marker kind themselves,
// and Section after Close is an error — the container stays well-formed
// by construction.
func TestReservedKind(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Section(EndKind, nil); err == nil {
		t.Error("Section accepted the reserved end-marker kind")
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Section(1, nil); err == nil {
		t.Error("Section succeeded after Close")
	}
	if err := enc.Close(); err != nil {
		t.Errorf("second Close should be a no-op: %v", err)
	}
}

// TestEmptySnapshot: a header plus end marker is a valid snapshot with
// zero sections.
func TestEmptySnapshot(t *testing.T) {
	blob := encodeSnapshot(t)
	got, err := decodeAll(blob)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty snapshot: sections=%d err=%v", len(got), err)
	}
}
