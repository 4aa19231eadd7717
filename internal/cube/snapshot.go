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
// (which supplies versioning, checksums and atomic generations). Two
// section kinds:
//
//	meta (1)  u8 ndims | ndims × u32 cardinality
//	view (2)  u32 mask | u64 entries | entries × (u64 key | f64 sum)
//
// View entries are written in ascending key order — the order a view's
// cursor reads them in memory, however they split between its packed
// run and its delta — so encoding the same cube twice yields
// byte-identical files: snapshots diff and dedupe like any other
// deterministic artifact, and the chaos suite can assert save/load
// round-trips by comparing bytes. Decoders trust nothing:
// every structural surprise inside a CRC-valid section is still a typed
// snapshot.ErrCorrupt, and each decoded view is charged against the
// context's budget governor exactly like a freshly built one, so
// loading a snapshot can never smuggle a cube past the memory quota.
const (
	sectionMeta = 1
	sectionView = 2

	viewHeaderBytes = 4 + 8 // a view section's mask and entry count
)

// EncodeViews writes a cube — full or partial — to w in the snapshot
// container format: the meta section plus one view section per stored
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
		r := v.stored[mask]
		payload = slices.Grow(payload[:0], viewHeaderBytes+runEntryBytes*r.size)[:viewHeaderBytes+runEntryBytes*r.size]
		binary.LittleEndian.PutUint32(payload, uint32(mask))
		binary.LittleEndian.PutUint64(payload[4:], uint64(r.size))
		entries := payload[viewHeaderBytes:]
		for c := r.cursor(); ; {
			keys, sums := c.next()
			if len(keys) == 0 {
				break
			}
			for i, k := range keys {
				binary.LittleEndian.PutUint64(entries, k)
				binary.LittleEndian.PutUint64(entries[8:], math.Float64bits(sums[i]))
				entries = entries[runEntryBytes:]
			}
		}
		if err := inj.Hit(fault.PointSnapshotSection); err != nil {
			return err
		}
		if err := enc.Section(sectionView, payload); err != nil {
			return err
		}
	}
	return enc.Close()
}

// corruptf builds a payload-level corruption error matching ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("cube snapshot: %w: %s", snapshot.ErrCorrupt, fmt.Sprintf(format, args...))
}

// DecodeViews reads a cube payload back: dimension cardinalities plus the
// stored views, each section's entries filled straight into the view's
// run while their order is checked; masks absent from the snapshot stay
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
		switch kind {
		case sectionMeta:
			if v != nil {
				return nil, corruptf("duplicate meta section")
			}
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
			v = newViews(card)
		case sectionView:
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
			// The claimed count is compared with what the bytes can hold
			// before it sizes or multiplies anything: a count near 2^60
			// would wrap 16*n back into range.
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
			v.stored[mask] = packedView(r)
		default:
			return nil, corruptf("unknown section kind %d", kind)
		}
	}
	if v == nil {
		return nil, corruptf("no meta section")
	}
	return v, nil
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
