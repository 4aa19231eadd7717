package cube

import (
	"context"
	"encoding/binary"
	"io"
	"math"
	"slices"

	"statcube/internal/snapshot"
)

// The append log's record body: one published batch of coded facts,
// behind the generation the snapshot log frames it with.
//
//	batch  u32 rows | u8 dims | rows × (dims × u32 code | f64 value)
//
// A generation past a checkpoint is the checkpoint plus the batches its
// log chain holds, and recovery folds them all in one fold. That is bit
// for bit the state the writer published batch by batch: the fold adds
// rows to each view in row order, continuing each key's sum from its
// stored one, and a key first seen in the batch starts from +0 either
// way (see view.fold). Whether the sums sit in a delta or a packed run
// changes no entry.
const batchHeaderBytes = 4 + 1

// AppendBatch appends the log record body of a batch of coded rows to
// dst. The rows must be valid for the cube they go to (Input.Validate);
// a code beyond 32 bits cannot be, as decoders cap a cardinality at 2^28.
func AppendBatch(dst []byte, rows [][]int, vals []float64) []byte {
	dims := 0
	if len(rows) > 0 {
		dims = len(rows[0])
	}
	dst = slices.Grow(dst, batchHeaderBytes+len(rows)*(4*dims+8))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows)))
	dst = append(dst, byte(dims))
	for i, row := range rows {
		for _, c := range row {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(c))
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(vals[i]))
	}
	return dst
}

// replay gathers the batches of a log chain for one fold. add checks a
// record whole before keeping it, so a bad record ends the chain's valid
// prefix at that record and is never half applied; batch decodes what
// was kept into exactly sized slices.
type replay struct {
	card   []int
	bodies [][]byte // record bodies, sub-slices of the log images
	rows   int
}

// add is ReplayLogs' record callback: it validates one batch body
// against the cube's cardinalities.
func (r *replay) add(gen uint64, body []byte) error {
	if len(body) < batchHeaderBytes {
		return corruptf("log record %d: batch of %d bytes", gen, len(body))
	}
	n, dims := binary.LittleEndian.Uint32(body), int(body[4])
	if dims != len(r.card) {
		return corruptf("log record %d: %d dims, cube has %d", gen, dims, len(r.card))
	}
	rowBytes := 4*dims + 8
	facts := body[batchHeaderBytes:]
	if len(facts)%rowBytes != 0 || uint64(len(facts)/rowBytes) != uint64(n) {
		return corruptf("log record %d claims %d rows in %d bytes", gen, n, len(facts))
	}
	for off := 0; off < len(facts); off += rowBytes {
		for d, c := range r.card {
			if code := binary.LittleEndian.Uint32(facts[off+4*d:]); uint64(code) >= uint64(c) {
				return corruptf("log record %d: code %d beyond dim %d's %d", gen, code, d, c)
			}
		}
	}
	r.bodies = append(r.bodies, facts)
	r.rows += int(n)
	return nil
}

// batch decodes every kept record into one fact batch: the rows share
// one code slab.
func (r *replay) batch() ([][]int, []float64) {
	dims := len(r.card)
	codes := make([]int, r.rows*dims)
	rows := make([][]int, r.rows)
	vals := make([]float64, r.rows)
	i := 0
	for _, facts := range r.bodies {
		for off := 0; off < len(facts); off += 4*dims + 8 {
			row := codes[i*dims : (i+1)*dims : (i+1)*dims]
			for d := range row {
				row[d] = int(binary.LittleEndian.Uint32(facts[off+4*d:]))
			}
			rows[i] = row
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(facts[off+4*dims:]))
			i++
		}
	}
	return rows, vals
}

// recoverViews is the one recovery path every reader of a store takes:
// the newest checkpoint decode accepts (recovering past corrupt ones,
// see Store.Load), then every batch the logs extending it hold, folded
// into its stored views in one fold. Replay stops at a
// torn or corrupt record; the chain says where, for a writer to cut.
func recoverViews(ctx context.Context, st *snapshot.Store, name string, decode func(context.Context, io.Reader) (*Views, error)) (*Views, snapshot.Chain, error) {
	var v *Views
	gen, err := st.Load(ctx, name, func(rd io.Reader) error {
		var err error
		v, err = decode(ctx, rd)
		return err
	})
	if err != nil {
		return nil, snapshot.Chain{}, err
	}
	rp := &replay{card: v.Card}
	chain, err := st.ReplayLogs(name, gen, rp.add)
	if err != nil {
		return nil, chain, err
	}
	if rp.rows > 0 {
		rows, vals := rp.batch()
		if v.stored, _, err = v.fold(ctx, rows, vals); err != nil {
			return nil, chain, err
		}
	}
	return v, chain, nil
}

// RecoverMaterialized is LoadMaterialized for a writer: the recovered
// set and the chain it came from, which names the log the writer
// appends to next and the valid prefix to cut it to.
func RecoverMaterialized(ctx context.Context, st *snapshot.Store, name string) (*MaterializedSet, snapshot.Chain, error) {
	v, chain, err := recoverViews(ctx, st, name, decodeMaterializedViews)
	if err != nil {
		return nil, chain, err
	}
	return &MaterializedSet{views: v}, chain, nil
}
