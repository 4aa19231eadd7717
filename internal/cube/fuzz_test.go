package cube

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"statcube/internal/snapshot"
)

// FuzzDecodeViews fuzzes the cube payload parser behind the container's
// checksums: the fuzzer supplies a meta payload and up to two view
// payloads, and the harness wraps them in a valid container (in
// FuzzSnapshotDecode the CRC rejects nearly every mutation before a
// payload is parsed). Whatever the payloads, DecodeViews must not panic;
// a refusal is snapshot.ErrCorrupt (no governor is attached, so no budget
// error can occur); an accepted cube re-encodes to the container it was
// read from, view sections in ascending mask order.
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
	f.Add(meta, view(3, 0, one, 4, one, 5, one), view(1, 0, one, 2, one))
	f.Add(meta, view(3), []byte{})
	f.Add(meta, view(0, 0, 1<<63), view(2, 1, one)) // a -0.0 sum
	f.Add(meta, view(1, 2, one, 1, one), []byte{})  // keys out of order
	f.Add(meta, view(1, 0, one), view(1, 0, one))   // duplicate mask
	f.Add(meta, view(4, 0, one), []byte{})          // mask beyond the dims
	f.Add(meta, view(3, 0, one)[:20], []byte{})     // truncated entry
	f.Add(meta, wrappedCountView, []byte{})         // 1<<60 entries claimed in 12 bytes
	f.Add([]byte{17}, view(0), []byte{})            // too many dims
	f.Add([]byte{1, 0, 0, 0, 0}, view(0), []byte{}) // zero cardinality
	f.Add(wideMeta, view(0), []byte{})              // key space beyond 2^64
	f.Add([]byte{0}, view(0, 0, one), []byte{})     // zero dims: the apex alone
	f.Add([]byte{}, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, meta, a, b []byte) {
		views := [][]byte{a}
		if len(b) > 0 {
			views = append(views, b)
		}
		v, err := DecodeViews(ctx, bytes.NewReader(container(t, meta, views...)))
		if err != nil {
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("refusal is not ErrCorrupt: %v", err)
			}
			return
		}
		// Accepted: every view payload had its 4-byte mask, and no two
		// share one, so ordering by mask is total.
		if len(views) == 2 && binary.LittleEndian.Uint32(b) < binary.LittleEndian.Uint32(a) {
			views[0], views[1] = b, a
		}
		var again bytes.Buffer
		if err := EncodeViews(ctx, &again, v); err != nil {
			t.Fatal(err)
		}
		if want := container(t, meta, views...); !bytes.Equal(again.Bytes(), want) {
			t.Fatalf("accepted cube re-encodes to different bytes:\n got %x\nwant %x", again.Bytes(), want)
		}
	})
}
