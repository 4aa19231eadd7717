package cube

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"statcube/internal/keyspace"
)

// decodePackedStaged is the packed-section decoder as it stood before its
// columns were fused: the sums unpacked into the keys' slice and then
// unzigzagged, the gaps unpacked and then summed in a second pass. It is
// the reference decodePacked must agree with, run for run and error for
// error.
func decodePackedStaged(acct *accountant, mask int, payload []byte) (*run, error) {
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
	if sw == 8 {
		for i := range r.sums {
			r.sums[i] = math.Float64frombits(binary.LittleEndian.Uint64(sums[8*i:]))
		}
		if stagedIntegral(r.sums) {
			return nil, corruptf("view mask %d stores integer sums as float64", mask)
		}
	} else {
		if width(stagedUnpack(r.keys, sums, sw)) != sw {
			return nil, corruptf("view mask %d sum width %d is not the narrowest", mask, sw)
		}
		for i, z := range r.keys {
			r.sums[i] = unzigzag(z)
		}
	}
	if n == 0 {
		return r, nil
	}
	if width(stagedUnpack(r.keys[1:], gaps, gw)) != gw {
		return nil, corruptf("view mask %d gap width %d is not the narrowest", mask, gw)
	}
	r.keys[0] = first
	if gw == 8 {
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
	if r.keys[n-1] < first {
		return nil, corruptf("view mask %d keys wrap", mask)
	}
	return r, nil
}

// stagedUnpack reads len(dst) little-endian words of w bytes from src
// into dst, one fixed-width loop per width, and returns their or.
func stagedUnpack(dst []uint64, src []byte, w int) uint64 {
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

// stagedIntegral reports whether every sum is an integer in [−2^31, 2^31)
// that is not −0, a chunk of 256 sums at a time: each sum's bits must
// equal those of its integer converted back, and the zigzag codes' or
// must fit four bytes.
func stagedIntegral(sums []float64) bool {
	var bits uint64
	for len(sums) > 0 {
		var diff uint64
		for _, s := range sums[:min(len(sums), 256)] {
			i := int64(s)
			bits |= uint64(i<<1 ^ i>>63)
			diff |= math.Float64bits(float64(i)) ^ math.Float64bits(s)
		}
		if diff != 0 || bits >= 1<<32 {
			return false
		}
		sums = sums[min(len(sums), 256):]
	}
	return true
}

// fullMeta is four dimensions of 2^16 values: the full view's keys are
// every uint64, up to 2^64−1.
var fullMeta = []byte{4, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0}

// decodedSection is what DecodeViews makes of one view section under
// fullMeta: the view's packed run, or the refusal.
func decodedSection(t *testing.T, payload []byte) (*run, error) {
	t.Helper()
	v, err := DecodeViews(context.Background(), bytes.NewReader(container(t, fullMeta, section{sectionPacked, payload})))
	if err != nil {
		return nil, err
	}
	mask := int(binary.LittleEndian.Uint32(payload))
	if v.stored[mask].size != len(v.stored[mask].packed.keys) {
		t.Fatalf("decoded view of mask %d holds a delta", mask)
	}
	return &v.stored[mask].packed, nil
}

// stagedSection is the same through decodePackedStaged, then DecodeViews'
// bound on the last key.
func stagedSection(payload []byte) (*run, error) {
	acct := newAccountant(context.Background())
	defer acct.close()
	mask := int(binary.LittleEndian.Uint32(payload))
	r, err := decodePackedStaged(acct, mask, payload)
	if err != nil {
		return nil, err
	}
	if n := len(r.keys); n > 0 && r.keys[n-1] > keyspace.Max(maskDims(mask, 4), []int{1 << 16, 1 << 16, 1 << 16, 1 << 16}) {
		return nil, corruptf("view mask %d key %d beyond its key space", mask, r.keys[n-1])
	}
	return r, nil
}

// packedPayload writes a packed section of the given entries in any
// widths, narrowest or not: gaps of gw bytes, sums of sw bytes — zigzag
// codes below 8, float64 bits at 8.
func packedPayload(mask uint32, keys []uint64, sums []float64, gw, sw int) []byte {
	var first uint64
	if len(keys) > 0 {
		first = keys[0]
	}
	p := pview(mask, uint64(len(keys)), byte(gw), byte(sw), first)
	put := func(x uint64, w int) {
		p = binary.LittleEndian.AppendUint64(p, x)
		p = p[:len(p)-8+w]
	}
	for i := 1; i < len(keys); i++ {
		put(keys[i]-keys[i-1]-1, gw)
	}
	for _, s := range sums {
		if sw == 8 {
			put(math.Float64bits(s), 8)
		} else {
			put(zigzag(s), sw)
		}
	}
	return p
}

// widthRun is a run of n entries whose gaps take exactly gw bytes and
// whose sums exactly sw: each column holds its width's edge values and
// random ones within it, and with last set the keys end at 2^64−1.
func widthRun(rng *rand.Rand, n, gw, sw int, last bool) ([]uint64, []float64) {
	edges := map[int][]uint64{1: {0, 255}, 2: {256, 65535}, 4: {65536, 1<<32 - 1}, 8: {1 << 32, 1<<40 + 3}}
	gaps := make([]uint64, max(n-1, 0))
	for i := range gaps {
		switch {
		case i < 2:
			gaps[i] = edges[gw][i]
		case gw == 8:
			gaps[i] = rng.Uint64() >> 24
		default:
			gaps[i] = rng.Uint64() & (1<<(8*gw) - 1)
		}
	}
	rng.Shuffle(len(gaps), func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	keys := make([]uint64, n)
	if n > 0 && !last {
		keys[0] = rng.Uint64() >> 40
	}
	for i, g := range gaps {
		keys[i+1] = keys[i] + g + 1
	}
	if last && n > 0 {
		shift := math.MaxUint64 - keys[n-1]
		for i := range keys {
			keys[i] += shift
		}
	}
	sumEdges := map[int][]float64{1: {-128, 127}, 2: {128, -32768}, 4: {-1 << 31, 1<<31 - 1}, 8: {0.5, math.Copysign(0, -1)}}
	sums := make([]float64, n)
	for i := range sums {
		switch {
		case i < 2:
			sums[i] = sumEdges[sw][i]
		case sw == 8:
			sums[i] = []float64{rng.NormFloat64(), math.NaN(), math.Inf(-1), 1 << 31, 1 << 60}[rng.Intn(5)]
		default:
			sums[i] = unzigzag(rng.Uint64() & (1<<(8*sw) - 1))
		}
	}
	rng.Shuffle(len(sums), func(i, j int) { sums[i], sums[j] = sums[j], sums[i] })
	return keys, sums
}

// TestDecodePackedMatchesReference: the fused decoder and the staged one
// it replaced decode every packed section to bit-identical runs and
// refuse every corrupt one with the identical error. Runs cover every
// (gap width, sum width) pair with each width's edge values, empty and
// one-entry views, lengths around the decode loops' blocks of four, and
// keys ending at 2^64−1; each valid run is also corrupted five ways — a
// column wider than its narrowest, integer sums stored as float64 bits,
// keys that wrap, a last key beyond the view's key space, and a count
// that does not fill the section.
func TestDecodePackedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	agree := func(name string, payload []byte, wantErr bool) {
		t.Helper()
		got, err := decodedSection(t, payload)
		ref, refErr := stagedSection(payload)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%s: err = %v, the staged decoder's %v", name, err, refErr)
		}
		if wantErr != (err != nil) {
			t.Fatalf("%s: err = %v, want refusal %v", name, err, wantErr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(got.keys, ref.keys) || !slices.EqualFunc(got.sums, ref.sums, sameBits) {
			t.Fatalf("%s: decoded run differs from the staged decoder's", name)
		}
	}
	agree("empty", pview(15, 0, 1, 1, 0), false)
	for _, first := range []uint64{0, 1 << 40, math.MaxUint64} {
		keys, sums := []uint64{first}, []float64{-1}
		agree(fmt.Sprintf("one entry at %d", first), packedPayload(15, keys, sums, 1, 1), false)
		agree(fmt.Sprintf("one entry at %d, wide sum", first), packedPayload(15, keys, sums, 1, 2), true)
		agree(fmt.Sprintf("one entry at %d, float sum", first), packedPayload(15, keys, sums, 1, 8), true)
	}
	for _, gw := range []int{1, 2, 4, 8} {
		for _, sw := range []int{1, 2, 4, 8} {
			for _, n := range []int{2, 3, 4, 5, 6, 8, 9, 13, 256, 257, 1000 + rng.Intn(100)} {
				for _, last := range []bool{false, true} {
					name := fmt.Sprintf("gw %d sw %d n %d last %v", gw, sw, n, last)
					keys, sums := widthRun(rng, n, gw, sw, last)
					p := appendPacked(nil, 15, packedView(&run{keys: keys, sums: sums}))
					if int(p[12]) != gw || int(p[13]) != sw {
						t.Fatalf("%s: encoded widths %d and %d", name, p[12], p[13])
					}
					agree(name, p, false)
					if gw < 8 {
						agree(name+": wider gaps", packedPayload(15, keys, sums, 2*gw, sw), true)
					}
					if sw < 4 {
						agree(name+": wider sums", packedPayload(15, keys, sums, gw, 2*sw), true)
					}
					if sw < 8 {
						agree(name+": integer sums as float64", packedPayload(15, keys, sums, gw, 8), true)
					}
					agree(name+": a count short", append(p[:4:4], append(le64(uint64(n-1)), p[12:]...)...), true)
					agree(name+": a count over", append(p[:4:4], append(le64(uint64(n+1)), p[12:]...)...), true)
					agree(name+": a byte over", append(slices.Clip(p), 0), true)
					// Mask 7 holds the keys below 2^48.
					narrow := slices.Clone(p)
					narrow[0] = 7
					agree(name+": beyond the key space", narrow, keys[n-1] >= 1<<48)
					// Keys moved up so that the last is 2^64: it wraps to 0.
					wrapped := slices.Clone(p)
					binary.LittleEndian.PutUint64(wrapped[14:], math.MaxUint64-(keys[n-1]-keys[0])+1)
					agree(name+": keys wrap", wrapped, true)
				}
			}
		}
	}
	// A wrap from an 8-byte gap on its own, mid-column, is named by the
	// per-key check.
	agree("8-byte gap wrap", packedPayload(15, gapKeys(5, 1<<32, math.MaxUint64-1<<32-5, 7), []float64{1, 2, 3, 4}, 8, 1), true)
	agree("8-byte gap to 2^64-1", packedPayload(15, gapKeys(5, 1<<32, math.MaxUint64-1<<32-7), []float64{1, 2, 3}, 8, 1), false)
	// The wrap's edge: a gap of 2^64 − 1 − k after key k would give 2^64.
	agree("8-byte gap to 2^64", packedPayload(15, gapKeys(5, 1<<32, math.MaxUint64-1<<32-6, 1<<32), []float64{1, 2, 3, 4}, 8, 1), true)
	// A wrapping 8-byte column of gaps that fit 1 byte names its width first.
	agree("8-byte column of narrow gaps that wraps", packedPayload(15, gapKeys(math.MaxUint64-1, 0, 0), []float64{1, 2, 3}, 8, 1), true)
}

// TestDecodePackedWidthLanes: a column whose values all fit half its
// width but one is accepted, and the same column stored at twice its
// width refused, wherever in a decode block or its tail that one value
// sits — a decode loop that leaves one of a block's lanes out of the
// width check reads the first as too wide and the second as narrowest.
func TestDecodePackedWidthLanes(t *testing.T) {
	wide := map[int]uint64{2: 256, 4: 1 << 16, 8: 1 << 32}
	for _, w := range []int{2, 4, 8} {
		for n := 2; n <= 11; n++ {
			for at := 0; at < n; at++ {
				name := fmt.Sprintf("width %d, %d entries, the wide value at %d", w, n, at)
				gaps := make([]uint64, n-1)
				sums := make([]float64, n)
				for i := range sums {
					sums[i] = float64(i % 3)
				}
				if at < n-1 {
					gaps[at] = wide[w]
				}
				if w < 8 {
					sums[at] = unzigzag(wide[w])
				}
				keys := gapKeys(3, gaps...)
				gw, sw := 1, 1
				if at < n-1 {
					gw = w
				}
				if w < 8 {
					sw = w
				}
				for _, c := range []struct {
					what   string
					gw, sw int
					refuse bool
				}{
					{"narrowest", gw, sw, false},
					{"gaps at twice", 2 * gw, sw, true},
					{"sums at twice", gw, 2 * sw, true},
				} {
					if c.gw > 8 || c.sw > 4 {
						continue
					}
					p := packedPayload(15, keys, sums, c.gw, c.sw)
					r, err := decodedSection(t, p)
					if (err != nil) != c.refuse {
						t.Fatalf("%s, %s: err = %v", name, c.what, err)
					}
					if err == nil && (!slices.Equal(r.keys, keys) || !slices.EqualFunc(r.sums, sums, sameBits)) {
						t.Fatalf("%s, %s: decoded run differs", name, c.what)
					}
				}
			}
		}
	}
}

// gapKeys is the keys from first on with the given gaps between them,
// wrapping past 2^64 as uint64 arithmetic does.
func gapKeys(first uint64, gaps ...uint64) []uint64 {
	keys := []uint64{first}
	for _, g := range gaps {
		keys = append(keys, keys[len(keys)-1]+g+1)
	}
	return keys
}
