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
	"statcube/internal/keyspace"
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
// It reads the entries twice: once for the two columns' ors, which give
// the narrowest widths, writing nothing, and once to write each gap and
// sum straight into the section through fixed-width loops.
func appendPacked(dst []byte, mask int, v *view) []byte {
	n := v.size
	var first uint64
	if c := v.cursor(); n > 0 {
		keys, _ := c.next()
		first = keys[0]
	}
	var gapBits, zigBits uint64
	ints, prev := true, first-1 // the first key's gap is then 0, which ors in nothing
	v.each(func(keys []uint64, sums []float64) {
		var bits uint64
		prev, bits = orGaps(keys, prev)
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
	prev, skip := first, 1 // the first key, in the first stretch, has no gap in the column
	v.each(func(keys []uint64, sums []float64) {
		gapCol = putGaps(gapCol, keys[skip:], prev, gw)
		prev, skip = keys[len(keys)-1], 0
		if ints {
			sumCol = putZigzags(sumCol, sums, sw)
		} else {
			sumCol = putFloats(sumCol, sums)
		}
	})
	return dst
}

// orGaps returns the last key and the bitwise or of each key's gap to
// the key before it, minus one; prev is the key before keys[0].
func orGaps(keys []uint64, prev uint64) (uint64, uint64) {
	var bits uint64
	for _, k := range keys {
		bits, prev = bits|(k-prev-1), k
	}
	return prev, bits
}

// putGaps writes each key's gap to the key before it, minus one — prev is
// the key before keys[0] — to col, w bytes a gap, and returns the rest
// of col.
func putGaps(col []byte, keys []uint64, prev uint64, w int) []byte {
	out, rest := col[:w*len(keys)], col[w*len(keys):]
	switch w {
	case 1:
		out = out[:len(keys)]
		for i, k := range keys {
			out[i], prev = byte(k-prev-1), k
		}
	case 2:
		for i, k := range keys {
			binary.LittleEndian.PutUint16(out[2*i:], uint16(k-prev-1))
			prev = k
		}
	case 4:
		for i, k := range keys {
			binary.LittleEndian.PutUint32(out[4*i:], uint32(k-prev-1))
			prev = k
		}
	default:
		for i, k := range keys {
			binary.LittleEndian.PutUint64(out[8*i:], k-prev-1)
			prev = k
		}
	}
	return rest
}

// putZigzags writes the sums' zigzag codes to col, w bytes a code, and
// returns the rest of col; every sum must be one zigzagBits accepts.
func putZigzags(col []byte, sums []float64, w int) []byte {
	out, rest := col[:w*len(sums)], col[w*len(sums):]
	switch w {
	case 1:
		out = out[:len(sums)]
		for i, s := range sums {
			out[i] = byte(zigzag(s))
		}
	case 2:
		for i, s := range sums {
			binary.LittleEndian.PutUint16(out[2*i:], uint16(zigzag(s)))
		}
	default:
		for i, s := range sums {
			binary.LittleEndian.PutUint32(out[4*i:], uint32(zigzag(s)))
		}
	}
	return rest
}

// putFloats writes the sums' float64 bits to col and returns the rest of
// col.
func putFloats(col []byte, sums []float64) []byte {
	out, rest := col[:8*len(sums)], col[8*len(sums):]
	for i, s := range sums {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(s))
	}
	return rest
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
// sum, without a branch, a chunk of 256 sums at a time, so that a float
// column stops at its first chunk: the sum's bits must equal those of
// its integer converted back — an s that int64 cannot hold converts to
// some integer that does not convert back to s, NaN included, and −0
// comes back as +0 — and the codes' or must fit four bytes.
func zigzagBits(sums []float64, bits uint64) (uint64, bool) {
	for len(sums) > 0 {
		var diff uint64
		for _, s := range sums[:min(len(sums), 256)] {
			i := int64(s)
			bits |= uint64(i<<1 ^ i>>63)
			diff |= math.Float64bits(float64(i)) ^ math.Float64bits(s)
		}
		if diff != 0 || bits >= 1<<32 {
			return bits, false
		}
		sums = sums[min(len(sums), 256):]
	}
	return bits, true
}

// zigzag is the zigzag code of a sum zigzagBits accepts; unzigzag gives the
// sum back bit for bit.
func zigzag(s float64) uint64 {
	i := int64(s)
	return uint64(i<<1 ^ i>>63)
}

func unzigzag(z uint64) float64 { return float64(int64(z>>1) ^ -int64(z&1)) }

// The 2- and 4-byte decode loops below, and the 8-byte sum loop, read a
// column four entries a block through fixed-size array views of the
// column and the run: one length check a block, no bounds check an
// entry, and the block's four loads independent of each other. Fewer
// than four entries are left to each loop's indexed tail. The 1-byte
// loops range over the column, which leaves no bounds check either; the
// 8-byte gap loop, which checks every key for a wrap, is indexed.

// decodeSums fills sums from a packed sum column of w bytes a sum — raw
// float64 bits at 8, zigzag codes below — in one pass, and returns the
// zigzag codes' or (0 at 8): the codes fit w bytes narrowest exactly
// when the or's width is w.
func decodeSums(sums []float64, col []byte, w int) uint64 {
	var bits uint64
	col = col[:w*len(sums)]
	switch w {
	case 1:
		col = col[:len(sums)]
		for i, b := range col {
			z := uint64(b)
			sums[i], bits = unzigzag(z), bits|z
		}
	case 2:
		for ; len(sums) >= 4; col, sums = col[8:], sums[4:] {
			c, d := (*[8]byte)(col), (*[4]float64)(sums)
			z0, z1 := uint64(binary.LittleEndian.Uint16(c[0:])), uint64(binary.LittleEndian.Uint16(c[2:]))
			z2, z3 := uint64(binary.LittleEndian.Uint16(c[4:])), uint64(binary.LittleEndian.Uint16(c[6:]))
			d[0], d[1], d[2], d[3] = unzigzag(z0), unzigzag(z1), unzigzag(z2), unzigzag(z3)
			bits |= z0 | z1 | z2 | z3
		}
		for i := range sums {
			z := uint64(binary.LittleEndian.Uint16(col[2*i:]))
			sums[i], bits = unzigzag(z), bits|z
		}
	case 4:
		for ; len(sums) >= 4; col, sums = col[16:], sums[4:] {
			c, d := (*[16]byte)(col), (*[4]float64)(sums)
			z0, z1 := uint64(binary.LittleEndian.Uint32(c[0:])), uint64(binary.LittleEndian.Uint32(c[4:]))
			z2, z3 := uint64(binary.LittleEndian.Uint32(c[8:])), uint64(binary.LittleEndian.Uint32(c[12:]))
			d[0], d[1], d[2], d[3] = unzigzag(z0), unzigzag(z1), unzigzag(z2), unzigzag(z3)
			bits |= z0 | z1 | z2 | z3
		}
		for i := range sums {
			z := uint64(binary.LittleEndian.Uint32(col[4*i:]))
			sums[i], bits = unzigzag(z), bits|z
		}
	default:
		for ; len(sums) >= 4; col, sums = col[32:], sums[4:] {
			c, d := (*[32]byte)(col), (*[4]float64)(sums)
			d[0] = math.Float64frombits(binary.LittleEndian.Uint64(c[0:]))
			d[1] = math.Float64frombits(binary.LittleEndian.Uint64(c[8:]))
			d[2] = math.Float64frombits(binary.LittleEndian.Uint64(c[16:]))
			d[3] = math.Float64frombits(binary.LittleEndian.Uint64(c[24:]))
		}
		for i := range sums {
			sums[i] = math.Float64frombits(binary.LittleEndian.Uint64(col[8*i:]))
		}
	}
	return bits
}

// decodeKeys fills keys, at least one, from the first key and a packed
// gap column of w bytes a gap in one pass: each key is the one before it
// plus its gap plus one, a running sum held in a register. It returns
// the gaps' or, and at w = 8 whether a key wrapped past 2^64 — a gap of
// 2^32 or more can wrap on its own, so that width checks every key;
// narrower gaps wrap at most once (see decodePacked).
func decodeKeys(keys []uint64, col []byte, w int, first uint64) (bits uint64, wrapped bool) {
	k := first
	keys[0], keys = k, keys[1:]
	col = col[:w*len(keys)]
	switch w {
	case 1:
		col = col[:len(keys)]
		for i, b := range col {
			g := uint64(b)
			k += g + 1
			keys[i], bits = k, bits|g
		}
	case 2:
		for ; len(keys) >= 4; col, keys = col[8:], keys[4:] {
			c, d := (*[8]byte)(col), (*[4]uint64)(keys)
			g0, g1 := uint64(binary.LittleEndian.Uint16(c[0:])), uint64(binary.LittleEndian.Uint16(c[2:]))
			g2, g3 := uint64(binary.LittleEndian.Uint16(c[4:])), uint64(binary.LittleEndian.Uint16(c[6:]))
			d[0] = k + g0 + 1
			d[1] = d[0] + g1 + 1
			d[2] = d[1] + g2 + 1
			d[3] = d[2] + g3 + 1
			k, bits = d[3], bits|g0|g1|g2|g3
		}
		for i := range keys {
			g := uint64(binary.LittleEndian.Uint16(col[2*i:]))
			k += g + 1
			keys[i], bits = k, bits|g
		}
	case 4:
		for ; len(keys) >= 4; col, keys = col[16:], keys[4:] {
			c, d := (*[16]byte)(col), (*[4]uint64)(keys)
			g0, g1 := uint64(binary.LittleEndian.Uint32(c[0:])), uint64(binary.LittleEndian.Uint32(c[4:]))
			g2, g3 := uint64(binary.LittleEndian.Uint32(c[8:])), uint64(binary.LittleEndian.Uint32(c[12:]))
			d[0] = k + g0 + 1
			d[1] = d[0] + g1 + 1
			d[2] = d[1] + g2 + 1
			d[3] = d[2] + g3 + 1
			k, bits = d[3], bits|g0|g1|g2|g3
		}
		for i := range keys {
			g := uint64(binary.LittleEndian.Uint32(col[4*i:]))
			k += g + 1
			keys[i], bits = k, bits|g
		}
	default:
		for i := range keys {
			g := binary.LittleEndian.Uint64(col[8*i:])
			if g >= math.MaxUint64-k {
				wrapped = true
			}
			k += g + 1
			keys[i], bits = k, bits|g
		}
	}
	return bits, wrapped
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
		// cell by every roll-up (see keyspace.Rekeyer), not refused.
		if n := len(r.keys); n > 0 && r.keys[n-1] > keyspace.Max(maskDims(mask, len(v.Card)), v.Card) {
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
	if !keyspace.Fit(card) {
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
// the run it allocates is under 8L bytes. Each column then goes into the
// run in one pass that also ors its values for the width check: the sums
// first, then the keys.
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
	zigBits := decodeSums(r.sums, sums, sw)
	if sw == 8 {
		if _, ints := zigzagBits(r.sums, 0); ints {
			return nil, corruptf("view mask %d stores integer sums as float64", mask)
		}
	} else if width(zigBits) != sw {
		return nil, corruptf("view mask %d sum width %d is not the narrowest", mask, sw)
	}
	if n == 0 {
		return r, nil
	}
	gapBits, wrapped := decodeKeys(r.keys, gaps, gw, first)
	if width(gapBits) != gw {
		return nil, corruptf("view mask %d gap width %d is not the narrowest", mask, gw)
	}
	// decodeKeys checks 8-byte gaps key by key. Narrower gaps, under 2^32
	// in a section under 2^32 bytes, add up to less than 2^64: the keys
	// wrap at most once, and then end below the first.
	if wrapped || r.keys[n-1] < first {
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
