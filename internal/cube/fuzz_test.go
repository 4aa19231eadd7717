package cube

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"statcube/internal/snapshot"
)

// FuzzDecodeViews fuzzes the cube payload parser behind the container's
// checksums: the fuzzer supplies a meta payload, up to two view payloads
// and their section kinds (bit i of kinds set makes view i a packed
// section, clear a legacy view section), and the harness wraps them in a
// valid container (in FuzzSnapshotDecode the CRC rejects nearly every
// mutation before a payload is parsed). Whatever the payloads,
// DecodeViews must not panic; a refusal is snapshot.ErrCorrupt (no
// governor is attached, so no budget error can occur). An accepted cube
// decodes again, identical, from its own encoding; one read from packed
// sections alone — the decoder accepts only their canonical form —
// re-encodes to the container it was read from, view sections in
// ascending mask order.
func FuzzDecodeViews(f *testing.F) {
	ctx := context.Background()
	meta := []byte{2, 3, 0, 0, 0, 2, 0, 0, 0}             // card {3, 2}
	view := func(mask uint32, entries ...uint64) []byte { // entries: key, sum bits, key, sum bits, …
		p := binary.LittleEndian.AppendUint32(nil, mask)
		p = binary.LittleEndian.AppendUint64(p, uint64(len(entries)/2))
		for _, e := range entries {
			p = binary.LittleEndian.AppendUint64(p, e)
		}
		return p
	}
	one := uint64(0x3FF0000000000000) // 1.0
	const legacy, packed, allPacked = 0, 1, 3
	f.Add(meta, view(3, 0, one, 4, one, 5, one), view(1, 0, one, 2, one), byte(legacy))
	f.Add(meta, view(3), []byte{}, byte(legacy))
	f.Add(meta, view(0, 0, 1<<63), view(2, 1, one), byte(legacy)) // a -0.0 sum
	f.Add(meta, view(1, 2, one, 1, one), []byte{}, byte(legacy))  // keys out of order
	f.Add(meta, view(1, 0, one), view(1, 0, one), byte(legacy))   // duplicate mask
	f.Add(meta, view(4, 0, one), []byte{}, byte(legacy))          // mask beyond the dims
	f.Add(meta, view(3, 0, one)[:20], []byte{}, byte(legacy))     // truncated entry
	f.Add(meta, wrappedCountView, []byte{}, byte(legacy))         // 1<<60 entries claimed in 12 bytes
	f.Add(meta, view(1, 3, one), []byte{}, byte(legacy))          // key 3 beyond card 3
	f.Add([]byte{17}, view(0), []byte{}, byte(legacy))            // too many dims
	f.Add([]byte{1, 0, 0, 0, 0}, view(0), []byte{}, byte(legacy)) // zero cardinality
	f.Add(wideMeta, view(0), []byte{}, byte(legacy))              // key space beyond 2^64
	f.Add([]byte{0}, view(0, 0, one), []byte{}, byte(legacy))     // zero dims: the apex alone
	f.Add([]byte{}, []byte{}, []byte{}, byte(legacy))

	// Packed sections (layout in snapshot.go); zigzag(1) = 2.
	f.Add(meta, pview(3, 3, 1, 1, 0, 3, 0, 2, 2, 2), pview(1, 2, 1, 1, 0, 1, 2, 2), byte(allPacked))
	f.Add(meta, pview(3, 3, 1, 1, 0, 3, 0, 2, 2, 2), view(1, 0, one, 2, one), byte(packed)) // one of each kind
	f.Add(meta, pview(3, 0, 1, 1, 0), []byte{}, byte(packed))                               // empty
	f.Add(meta, pview(3, 0, 1, 1, 2), []byte{}, byte(packed))                               // empty, with a first key
	f.Add(meta, pview(3, 0, 2, 1, 0), []byte{}, byte(packed))                               // empty, a wide gap column
	f.Add(meta, pview(3, 1, 3, 1, 0, 2), []byte{}, byte(packed))                            // gap width 3
	f.Add(meta, pview(3, 1, 1, 0, 0), []byte{}, byte(packed))                               // sum width 0
	f.Add(meta, pview(3, 1, 1, 16, 0, 2), []byte{}, byte(packed))                           // sum width 16
	f.Add(meta, pview(3, 5, 1, 1, 0, 0, 0, 2, 2, 2), []byte{}, byte(packed))                // 5 entries in 3 entries' bytes
	f.Add(meta, pview(3, 1<<60, 1, 1, 0, 0, 2), []byte{}, byte(packed))                     // 1<<60 entries claimed
	f.Add(meta, pview(3, 1<<63+1, 8, 8, 0), []byte{}, byte(packed))                         // a count that wraps the byte sum
	f.Add(meta, pview(3, 2, 2, 1, 0, 3, 0, 2, 2), []byte{}, byte(packed))                   // gap fits 1 byte, stored in 2
	f.Add(meta, pview(3, 2, 1, 2, 0, 3, 2, 0, 2, 0), []byte{}, byte(packed))                // sums fit 1 byte, stored in 2
	f.Add(meta, pview(1, 1, 1, 8, 0, le64(one)...), []byte{}, byte(packed))                 // integer sum as float64 bits
	f.Add(meta, pview(1, 1, 1, 1, 3, 2), []byte{}, byte(packed))                            // key 3 beyond card 3
	f.Add(meta, pview(3, 2, 1, 1, 0, 5, 2, 2), []byte{}, byte(packed))                      // second key 6 beyond 5

	// 8-byte gaps: one that wraps back to the first key, one in range;
	// and 4-byte gaps in range past 2^62.
	f.Add(wrapMeta, pview(7, 2, 8, 1, 5, append(le64(math.MaxUint64), 2, 2)...), []byte{}, byte(packed))
	f.Add(wrapMeta, pview(7, 2, 8, 1, 5, append(le64(1<<32), 2, 2)...), []byte{}, byte(packed))
	f.Add(wrapMeta, pview(7, 3, 4, 1, 1<<62, append(le32(1<<31, 1<<31), 2, 2, 2)...), []byte{}, byte(packed))

	// Sums: −0, NaN and ±Inf as float64 bits; an integer past a 4-byte
	// zigzag code; the 4-byte edge, zigzag −2^31; and a 2-byte value
	// stored in 4.
	special := append([]byte{0, 0}, floats(math.Copysign(0, -1), math.NaN(), math.Inf(1))...)
	f.Add(meta, pview(1, 3, 1, 8, 0, special...), pview(2, 1, 1, 8, 1, floats(math.Inf(-1))...), byte(allPacked))
	f.Add(meta, pview(1, 1, 1, 8, 0, floats(1<<40)...), []byte{}, byte(packed))
	f.Add(meta, pview(1, 1, 1, 4, 0, le32(math.MaxUint32)...), []byte{}, byte(packed))
	f.Add(meta, pview(1, 1, 1, 4, 0, le32(1<<16-1)...), []byte{}, byte(packed))

	// Each width's edges: gaps 255/256, 65 535/65 536 and 2^32−1/2^32,
	// zigzag codes 255/256 and 65 535/65 536, and keys ending at 2^64−1
	// under fullMeta, or wrapping to 0 there: on the gap after the last
	// key, at 8 bytes one gap on its own, and 8-byte gaps that fit 1.
	f.Add(wrapMeta, pview(7, 3, 1, 1, 0, 0, 255, 2, 2, 2), pview(6, 3, 2, 1, 0, append(le16(256, 65535), 2, 2, 2)...), byte(allPacked))
	f.Add(wrapMeta, pview(7, 3, 4, 1, 0, append(le32(65536, 1<<32-1), 2, 2, 2)...), pview(6, 2, 8, 1, 0, append(le64(1<<32), 2, 2)...), byte(allPacked))
	f.Add(wrapMeta, pview(7, 2, 1, 1, 0, 0, 255, 254), pview(6, 2, 1, 2, 0, append([]byte{0}, le16(256, 65535)...)...), byte(allPacked))
	f.Add(wrapMeta, pview(7, 2, 1, 4, 0, append([]byte{0}, le32(65536, 1<<32-1)...)...), []byte{}, byte(packed))
	f.Add(fullMeta, pview(15, 3, 1, 1, math.MaxUint64-2, 0, 0, 2, 2, 2), []byte{}, byte(packed))
	f.Add(fullMeta, pview(15, 3, 1, 1, math.MaxUint64-2, 0, 1, 2, 2, 2), []byte{}, byte(packed))
	f.Add(fullMeta, pview(15, 3, 8, 1, 5, append(le64(1<<32, math.MaxUint64-1<<32-7), 2, 2, 2)...), []byte{}, byte(packed))
	f.Add(fullMeta, pview(15, 3, 8, 1, 5, append(le64(1<<32, math.MaxUint64-1<<32-6), 2, 2, 2)...), []byte{}, byte(packed))
	f.Add(fullMeta, pview(15, 3, 8, 1, math.MaxUint64-1, append(le64(0, 0), 2, 2, 2)...), []byte{}, byte(packed))
	f.Add(fullMeta, pview(7, 2, 1, 1, 1<<48-2, 0, 2, 2), pview(11, 2, 1, 1, 1<<48-2, 1, 2, 2), byte(allPacked)) // 2^48−1 fits mask 7, 2^48 does not fit mask 11
	f.Fuzz(func(t *testing.T, meta, a, b []byte, kinds byte) {
		views := []section{{legacyOrPacked(kinds, 0), a}}
		if len(b) > 0 {
			views = append(views, section{legacyOrPacked(kinds, 1), b})
		}
		v, err := DecodeViews(ctx, bytes.NewReader(container(t, meta, views...)))
		if err != nil {
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("refusal is not ErrCorrupt: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := EncodeViews(ctx, &again, v); err != nil {
			t.Fatal(err)
		}
		w, err := DecodeViews(ctx, bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded cube does not decode: %v", err)
		}
		if !v.Identical(w) {
			t.Fatal("re-encoded cube decodes to a different cube")
		}
		for _, s := range views {
			if s.kind != sectionPacked {
				return // a legacy section re-encodes packed: different bytes, same cube
			}
		}
		// Accepted: every view payload had its 4-byte mask, and no two
		// share one, so ordering by mask is total.
		if len(views) == 2 && binary.LittleEndian.Uint32(b) < binary.LittleEndian.Uint32(a) {
			views[0], views[1] = views[1], views[0]
		}
		if want := container(t, meta, views...); !bytes.Equal(again.Bytes(), want) {
			t.Fatalf("accepted cube re-encodes to different bytes:\n got %x\nwant %x", again.Bytes(), want)
		}
	})
}

// legacyOrPacked is the section kind bit i of kinds picks.
func legacyOrPacked(kinds byte, i int) uint8 {
	if kinds&(1<<i) != 0 {
		return sectionPacked
	}
	return sectionView
}

// pview is a packed section's payload: its header fields, then body —
// the gap and sum columns as raw bytes.
func pview(mask uint32, entries uint64, gapWidth, sumWidth byte, first uint64, body ...byte) []byte {
	p := binary.LittleEndian.AppendUint32(nil, mask)
	p = binary.LittleEndian.AppendUint64(p, entries)
	p = append(p, gapWidth, sumWidth)
	p = binary.LittleEndian.AppendUint64(p, first)
	return append(p, body...)
}

func le64(xs ...uint64) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

func le16(xs ...uint16) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint16(b, x)
	}
	return b
}

func le32(xs ...uint32) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	return b
}

// floats is a packed float64 sum column.
func floats(xs ...float64) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// wrapMeta is three dimensions of 2^21 values: a 2^63-key space, wide
// enough for 8-byte gaps.
var wrapMeta = []byte{3, 0, 0, 0x20, 0, 0, 0, 0x20, 0, 0, 0, 0x20, 0}
