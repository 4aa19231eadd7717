package cube

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"statcube/internal/fault"
	"statcube/internal/snapshot"
)

// Cube snapshot payloads, layered on the snapshot container format
// (which supplies versioning, checksums and atomic generations). Three
// section kinds:
//
//	meta (1)    u8 ndims | ndims × u32 cardinality
//	view (2)    u32 mask | u64 entries | entries × (u64 key | f64 sum)
//	packed (3)  u32 mask | u64 entries | u8 gap width | u8 sum width |
//	            u64 first key | (entries−1) × gap | entries × sum
//
// A packed section is [EOA81]'s header compression (§6.1–6.2) over a
// view's sorted run: a key is stored as its gap to the key before it
// minus one — the length of the run of empty cells between them — and
// each column takes the narrowest of 1, 2, 4 or 8 bytes that holds all
// of its values. A sum width below 8 holds zigzag integers: every sum of
// the view is an integer in [−2^31, 2^31) and none is −0. Width 8 holds
// raw float64 bits, which any larger integer fits exactly, so an
// 8-byte integer column would cost the same bytes. Both decode bit for
// bit. The encoder writes packed sections only (about 4 B an entry on
// integer-valued data against view's 16); the decoder reads both kinds,
// so a store written as view sections still loads, and its next
// checkpoint is packed. The in-memory charge stays runEntryBytes an
// entry whichever kind a view arrived in.
//
// View entries are written in ascending key order — the order a view's
// cursor reads them in memory, however they split between its packed
// run and its delta — so encoding the same cube twice yields
// byte-identical files: snapshots diff and dedupe like any other
// deterministic artifact, and the chaos suite can assert save/load
// round-trips by comparing bytes. Decoders trust nothing:
// every structural surprise inside a CRC-valid section is still a typed
// snapshot.ErrCorrupt — a key beyond its view's key space included, and
// a packed section in any form but the one the encoder writes, so an
// accepted packed section re-encodes byte for byte. Each decoded view
// is charged against the context's budget governor exactly like a
// freshly built one, after its widths and count are checked against the
// section's bytes and before its run is allocated, so loading a
// snapshot can never smuggle a cube past the memory quota, and a
// section allocates at most 8× its own bytes.
const (
	sectionMeta   = 1
	sectionView   = 2
	sectionPacked = 3

	viewHeaderBytes   = 4 + 8                       // a section's mask and entry count
	packedHeaderBytes = viewHeaderBytes + 1 + 1 + 8 // … then the two widths and the first key
)

// EncodeViews writes a cube — full or partial — to w in the snapshot
// container format: the meta section plus one packed section per stored
// mask, ascending. The context's fault injector is consulted at every
// section boundary (snapshot.section), the hook chaos tests use to die
// mid-file.
func EncodeViews(ctx context.Context, w io.Writer, v *Views) error {
	card := v.Card
	inj := fault.From(ctx)
	enc, err := snapshot.NewEncoder(w)
	if err != nil {
		return err
	}
	meta := make([]byte, 1+4*len(card))
	meta[0] = byte(len(card))
	for d, c := range card {
		binary.LittleEndian.PutUint32(meta[1+4*d:], uint32(c))
	}
	if err := inj.Hit(fault.PointSnapshotSection); err != nil {
		return err
	}
	if err := enc.Section(sectionMeta, meta); err != nil {
		return err
	}
	var payload []byte // reused across views; Section writes it out before returning
	for _, mask := range v.Masks() {
		payload = appendPacked(payload[:0], mask, v.stored[mask])
		if err := inj.Hit(fault.PointSnapshotSection); err != nil {
			return err
		}
		if err := enc.Section(sectionPacked, payload); err != nil {
			return err
		}
	}
	return enc.Close()
}

// appendPacked appends the packed section of the view v at mask to dst.
// It reads the entries twice, a chunk at a time, through a small buffer
// of words: once to find the narrowest widths, once to write the gaps
// and sums through fixed-width loops.
func appendPacked(dst []byte, mask int, v *view) []byte {
	var buf [256]uint64
	n := v.size
	var first uint64
	if c := v.cursor(); n > 0 {
		keys, _ := c.next()
		first = keys[0]
	}
	var gapBits, zigBits uint64
	ints, prev := true, first-1 // the first key's gap is then 0, which ors in nothing
	v.chunks(len(buf), func(keys []uint64, sums []float64) {
		var bits uint64
		prev, bits = gaps(buf[:], keys, prev)
		gapBits |= bits
		if ints {
			zigBits, ints = zigzagBits(sums, zigBits)
		}
	})
	gw, sw := width(gapBits), 8
	if ints {
		sw = width(zigBits)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(mask))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(n))
	dst = append(dst, byte(gw), byte(sw))
	dst = binary.LittleEndian.AppendUint64(dst, first)
	at := len(dst)
	dst = slices.Grow(dst, packedBytes(n, gw, sw))[:at+packedBytes(n, gw, sw)]
	gapCol, sumCol := dst[at:at+max(n-1, 0)*gw], dst[at+max(n-1, 0)*gw:]
	prev, skip := first-1, 1 // the first key, in the first chunk, has no gap in the column
	v.chunks(len(buf), func(keys []uint64, sums []float64) {
		prev, _ = gaps(buf[:], keys, prev)
		g := buf[skip:len(keys)]
		skip = 0
		pack(gapCol, g, gw)
		gapCol = gapCol[len(g)*gw:]
		if ints {
			for i, x := range sums {
				buf[i] = zigzag(x)
			}
			pack(sumCol, buf[:len(sums)], sw)
		} else {
			for i, x := range sums {
				binary.LittleEndian.PutUint64(sumCol[8*i:], math.Float64bits(x))
			}
		}
		sumCol = sumCol[len(sums)*sw:]
	})
	return dst
}

// gaps writes to dst each key's gap to the key before it, minus one —
// prev is the key before keys[0] — and returns the last key and the
// gaps' bitwise or.
func gaps(dst, keys []uint64, prev uint64) (uint64, uint64) {
	var bits uint64
	dst = dst[:len(keys)]
	for i, k := range keys {
		g := k - prev - 1
		dst[i], bits, prev = g, bits|g, k
	}
	return prev, bits
}

// packedBytes is what a packed section of n entries holds past its
// header: n−1 gaps of gw bytes and n sums of sw bytes.
func packedBytes(n, gw, sw int) int { return max(n-1, 0)*gw + n*sw }

// width is the narrowest of 1, 2, 4 and 8 bytes that holds x.
func width(x uint64) int {
	switch {
	case x < 1<<8:
		return 1
	case x < 1<<16:
		return 2
	case x < 1<<32:
		return 4
	}
	return 8
}

func validWidth(w int) bool { return w == 1 || w == 2 || w == 4 || w == 8 }

// zigzagBits ors the sums' zigzag codes into bits and reports whether
// every sum has one of at most four bytes: whether it is an integer in
// [−2^31, 2^31) that is not −0 (NaN and ±Inf are not). One test per
// sum, without a branch: the sum's bits must equal those of its integer
// converted back — an s that int64 cannot hold converts to some integer
// that does not convert back to s, NaN included, and −0 comes back as
// +0 — and the codes' or must fit four bytes.
func zigzagBits(sums []float64, bits uint64) (uint64, bool) {
	var diff uint64
	for _, s := range sums {
		i := int64(s)
		bits |= uint64(i<<1 ^ i>>63)
		diff |= math.Float64bits(float64(i)) ^ math.Float64bits(s)
	}
	return bits, diff == 0 && bits < 1<<32
}

// integral reports whether zigzagBits accepts every sum, a chunk at a
// time, so that a float column stops at its first chunk.
func integral(sums []float64) bool {
	bits, ints := uint64(0), true
	for len(sums) > 0 && ints {
		k := min(len(sums), 256)
		bits, ints = zigzagBits(sums[:k], bits)
		sums = sums[k:]
	}
	return ints
}

// zigzag is the zigzag code of a sum zigzagBits accepts; unzigzag gives the
// sum back bit for bit.
func zigzag(s float64) uint64 {
	i := int64(s)
	return uint64(i<<1 ^ i>>63)
}

func unzigzag(z uint64) float64 { return float64(int64(z>>1) ^ -int64(z&1)) }

// pack writes words to out little-endian, w bytes each, one fixed-width
// loop per width.
func pack(out []byte, words []uint64, w int) {
	switch w {
	case 1:
		out = out[:len(words)]
		for i, x := range words {
			out[i] = byte(x)
		}
	case 2:
		for i, x := range words {
			binary.LittleEndian.PutUint16(out[2*i:], uint16(x))
		}
	case 4:
		for i, x := range words {
			binary.LittleEndian.PutUint32(out[4*i:], uint32(x))
		}
	default:
		for i, x := range words {
			binary.LittleEndian.PutUint64(out[8*i:], x)
		}
	}
}

// unpack is pack's inverse: it reads len(dst) little-endian words of w
// bytes from src into dst, one fixed-width loop per width, and returns
// their bitwise or — the words fit w bytes narrowest exactly when the
// or's width is w.
func unpack(dst []uint64, src []byte, w int) uint64 {
	var bits uint64
	src = src[:w*len(dst)]
	switch w {
	case 1:
		for i := range dst {
			x := uint64(src[i])
			dst[i], bits = x, bits|x
		}
	case 2:
		for i := range dst {
			x := uint64(binary.LittleEndian.Uint16(src[2*i:]))
			dst[i], bits = x, bits|x
		}
	case 4:
		for i := range dst {
			x := uint64(binary.LittleEndian.Uint32(src[4*i:]))
			dst[i], bits = x, bits|x
		}
	default:
		for i := range dst {
			x := binary.LittleEndian.Uint64(src[8*i:])
			dst[i], bits = x, bits|x
		}
	}
	return bits
}

// corruptf builds a payload-level corruption error matching ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("cube snapshot: %w: %s", snapshot.ErrCorrupt, fmt.Sprintf(format, args...))
}

// DecodeViews reads a cube payload back: dimension cardinalities plus the
// stored views, each section's entries filled straight into the view's
// run, from either section kind; masks absent from the snapshot stay
// unstored, exactly as an unbuilt view would be. Each view is charged to
// the context's governor (cells and bytes) before its run is allocated,
// so an over-budget load fails with the typed budget error partway in
// instead of materializing the whole cube first.
func DecodeViews(ctx context.Context, r io.Reader) (*Views, error) {
	dec, err := snapshot.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	acct := newAccountant(ctx)
	defer acct.close()
	var v *Views
	for {
		kind, payload, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if kind == sectionMeta {
			if v != nil {
				return nil, corruptf("duplicate meta section")
			}
			if v, err = decodeMeta(payload); err != nil {
				return nil, err
			}
			continue
		}
		if kind != sectionView && kind != sectionPacked {
			return nil, corruptf("unknown section kind %d", kind)
		}
		if v == nil {
			return nil, corruptf("view section before meta")
		}
		if len(payload) < viewHeaderBytes {
			return nil, corruptf("view section of %d bytes", len(payload))
		}
		mask := int(binary.LittleEndian.Uint32(payload))
		if mask >= len(v.stored) {
			return nil, corruptf("view mask %d beyond %d dims", mask, len(v.Card))
		}
		if v.stored[mask] != nil {
			return nil, corruptf("duplicate view mask %d", mask)
		}
		decode := decodePacked
		if kind == sectionView {
			decode = decodeLegacy
		}
		r, err := decode(acct, mask, payload)
		if err != nil {
			return nil, err
		}
		// One check of the last key bounds them all, the keys ascending:
		// a key beyond the view's key space would be folded into a wrong
		// cell by every roll-up (see rekeyer), not refused.
		if n := len(r.keys); n > 0 && r.keys[n-1] > maxKey(maskDims(mask, len(v.Card)), v.Card) {
			return nil, corruptf("view mask %d key %d beyond its key space", mask, r.keys[n-1])
		}
		v.stored[mask] = packedView(r)
	}
	if v == nil {
		return nil, corruptf("no meta section")
	}
	return v, nil
}

// decodeMeta reads the meta section: the cube's cardinalities.
func decodeMeta(payload []byte) (*Views, error) {
	if len(payload) < 1 {
		return nil, corruptf("empty meta section")
	}
	n := int(payload[0])
	if n > 16 || len(payload) != 1+4*n {
		return nil, corruptf("meta section claims %d dims in %d bytes", n, len(payload))
	}
	card := make([]int, n)
	for d := range card {
		c := binary.LittleEndian.Uint32(payload[1+4*d:])
		if c == 0 || c > 1<<28 {
			return nil, corruptf("dim %d cardinality %d", d, c)
		}
		card[d] = int(c)
	}
	if !keysFit(card) {
		return nil, corruptf("cardinalities %v span more than 2^64 keys", card)
	}
	return newViews(card), nil
}

// decodeLegacy reads a view section's run, checking its keys ascend.
func decodeLegacy(acct *accountant, mask int, payload []byte) (*run, error) {
	// The claimed count is compared with what the bytes can hold before
	// it sizes or multiplies anything: a count near 2^60 would wrap 16*n
	// back into range.
	body := payload[viewHeaderBytes:]
	n := len(body) / runEntryBytes
	if claimed := binary.LittleEndian.Uint64(payload[4:]); len(body)%runEntryBytes != 0 || claimed != uint64(n) {
		return nil, corruptf("view mask %d claims %d entries in %d bytes", mask, claimed, len(payload))
	}
	if err := acct.chargeView(n); err != nil {
		return nil, err
	}
	r := &run{keys: make([]uint64, n), sums: make([]float64, n)}
	for i := range r.keys {
		k := binary.LittleEndian.Uint64(body[runEntryBytes*i:])
		if i > 0 && k <= r.keys[i-1] {
			return nil, corruptf("view mask %d keys out of order", mask)
		}
		r.keys[i] = k
		r.sums[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[runEntryBytes*i+8:]))
	}
	return r, nil
}

// decodePacked reads a packed section's run, accepting only the form
// appendPacked writes: valid and narrowest widths, a count that exactly
// fills the section, a zero first key when empty, and keys that do not
// wrap. The widths and the count are checked before anything is charged
// or allocated; a section of L bytes holds at most (L−21)/2 entries, so
// the run it allocates is under 8L bytes.
func decodePacked(acct *accountant, mask int, payload []byte) (*run, error) {
	if len(payload) < packedHeaderBytes {
		return nil, corruptf("packed view section of %d bytes", len(payload))
	}
	claimed := binary.LittleEndian.Uint64(payload[4:])
	gw, sw := int(payload[12]), int(payload[13])
	first := binary.LittleEndian.Uint64(payload[14:])
	if !validWidth(gw) || !validWidth(sw) {
		return nil, corruptf("view mask %d widths %d and %d", mask, gw, sw)
	}
	body := payload[packedHeaderBytes:]
	// Every entry takes a sum byte at least, so a count within the body's
	// length cannot wrap the size arithmetic.
	if claimed > uint64(len(body)) || packedBytes(int(claimed), gw, sw) != len(body) {
		return nil, corruptf("view mask %d claims %d entries in %d bytes", mask, claimed, len(payload))
	}
	n := int(claimed)
	if n == 0 && (gw != 1 || sw != 1 || first != 0) {
		return nil, corruptf("empty view mask %d is not in canonical form", mask)
	}
	if err := acct.chargeView(n); err != nil {
		return nil, err
	}
	r := &run{keys: make([]uint64, n), sums: make([]float64, n)}
	gaps, sums := body[:max(n-1, 0)*gw], body[max(n-1, 0)*gw:]
	// The keys are the zigzag codes' scratch until the gaps fill them.
	if sw == 8 {
		for i := range r.sums {
			r.sums[i] = math.Float64frombits(binary.LittleEndian.Uint64(sums[8*i:]))
		}
		if integral(r.sums) {
			return nil, corruptf("view mask %d stores integer sums as float64", mask)
		}
	} else {
		if width(unpack(r.keys, sums, sw)) != sw {
			return nil, corruptf("view mask %d sum width %d is not the narrowest", mask, sw)
		}
		for i, z := range r.keys {
			r.sums[i] = unzigzag(z)
		}
	}
	if n == 0 {
		return r, nil
	}
	if width(unpack(r.keys[1:], gaps, gw)) != gw {
		return nil, corruptf("view mask %d gap width %d is not the narrowest", mask, gw)
	}
	r.keys[0] = first
	if gw == 8 {
		// A gap of 2^32 or more can wrap past 2^64 on its own.
		for i := 1; i < n; i++ {
			if r.keys[i] >= math.MaxUint64-r.keys[i-1] {
				return nil, corruptf("view mask %d keys wrap", mask)
			}
			r.keys[i] += r.keys[i-1] + 1
		}
		return r, nil
	}
	for i := 1; i < n; i++ {
		r.keys[i] += r.keys[i-1] + 1
	}
	// Gaps under 2^32 in a section under 2^32 bytes add up to less than
	// 2^64: the keys wrap at most once, and then end below the first.
	if r.keys[n-1] < first {
		return nil, corruptf("view mask %d keys wrap", mask)
	}
	return r, nil
}

// SaveViews writes a cube as the next generation of name in the store,
// atomically. See Store.Save for the crash contract.
func SaveViews(ctx context.Context, st *snapshot.Store, name string, v *Views) (uint64, error) {
	return st.Save(ctx, name, func(w io.Writer) error { return EncodeViews(ctx, w, v) })
}

// LoadViews reads the newest generation of name from the store: its
// newest loadable checkpoint with the batches logged after it folded in
// (see recoverViews).
func LoadViews(ctx context.Context, st *snapshot.Store, name string) (*Views, uint64, error) {
	v, chain, err := recoverViews(ctx, st, name, DecodeViews)
	if err != nil {
		return nil, 0, err
	}
	return v, chain.Gen, nil
}

// EncodeMaterialized writes a materialized-view set to w. Only the
// stored views travel; scan-cost statistics are runtime state and reset
// on load.
func EncodeMaterialized(ctx context.Context, w io.Writer, m *MaterializedSet) error {
	return EncodeViews(ctx, w, m.views)
}

// DecodeMaterialized reads a materialized-view set back. A snapshot
// without the base cuboid is corrupt — a set that cannot answer every
// query was never a valid MaterializedSet, and half-loaded state must
// not impersonate one.
func DecodeMaterialized(ctx context.Context, r io.Reader) (*MaterializedSet, error) {
	v, err := decodeMaterializedViews(ctx, r)
	if err != nil {
		return nil, err
	}
	return &MaterializedSet{views: v}, nil
}

// decodeMaterializedViews is DecodeViews refusing a cube without its
// base cuboid.
func decodeMaterializedViews(ctx context.Context, r io.Reader) (*Views, error) {
	v, err := DecodeViews(ctx, r)
	if err != nil {
		return nil, err
	}
	if v.stored[len(v.stored)-1] == nil {
		return nil, corruptf("materialized set without its base cuboid")
	}
	return v, nil
}

// LoadMaterialized reads the newest generation of name as a materialized
// set: its newest loadable checkpoint (one without its base cuboid counts
// as corrupt) with the batches logged after it folded in.
func LoadMaterialized(ctx context.Context, st *snapshot.Store, name string) (*MaterializedSet, uint64, error) {
	m, chain, err := RecoverMaterialized(ctx, st, name)
	if err != nil {
		return nil, 0, err
	}
	return m, chain.Gen, nil
}
