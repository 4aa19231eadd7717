package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// appendBodyCases are bodies where encoding/json's rules are least
// obvious, or that sit one step off the shape decodeAppend's fast path
// reads; each must decode exactly as json.Unmarshal decodes it.
var appendBodyCases = []string{
	// The fast path's shape: any key order, whitespace, empty arrays.
	`{"rows":[[1,2],[3]],"vals":[1.5,2],"buffer":true}`, ` { "vals" : [ ] , "rows" : [ [ ] ] } `,
	// The key a client of the retired buffered append sends: ignored, so
	// the batch is published and durable like any other.
	`{"rows":[[1,2,0]],"vals":[1],"buffer":true}`,
	`{"buffer":false,"rows":[]}`, `{"rows":null,"vals":null,"buffer":null}`, `{"buffer":null,"buffer":true}`, `{}`, "{}\n\t\r ", `{"rows":[[0,-0,-1]],"vals":[-0,0.5e-3]}`,
	// null at every level.
	`null`, ` null `, `{"rows":null,"vals":null,"buffer":null}`,
	`{"rows":[null,[1]],"vals":[1,2]}`, `{"rows":[[null,2]],"vals":[null]}`,
	// Case-folded and escaped keys.
	`{"ROWS":[[1]],"Vals":[1],"BUFFER":true}`, `{"rowſ":[[1]],"valſ":[2]}`,
	`{"\u0072ows":[[1]],"vals":[1]}`, `{"rows":[[3]]}`, `{"\/rows":[[1]]}`,
	`{"\ud800rows":[[1]]}`, `{"rows😀":[[1]]}`, "{\"row\xffs\":[[1]]}", `{"rows ":[[1]]}`,
	// Last-wins duplicates, decoded over what the first left.
	`{"rows":[[1,2]],"rows":[[3]]}`, `{"rows":[[1],[2],[3]],"rows":[[4]],"rows":[null,null,[null]]}`,
	`{"rows":[[1,2]],"rows":null,"rows":[[null,null]]}`, `{"buffer":true,"buffer":null}`,
	`{"vals":[1,2],"vals":[null]}`, `{"vals":[1,2,3],"vals":[4],"vals":[null,null,null,null]}`,
	// Unknown keys, skipped but checked.
	`{"x":{"a":[1,{"b":null}],"c":"é\n"},"rows":[[1]],"vals":[1]}`,
	`{"x":[1,}`, `{"x":tru}`, `{"x":"\q"}`, "{\"x\":\"\x01\"}", `{"x":01}`,
	// Codes.
	`{"rows":[[1.0]]}`, `{"rows":[[1e2]]}`, `{"rows":[[9223372036854775807]]}`,
	`{"rows":[[9223372036854775808]]}`, `{"rows":[[-9223372036854775808]]}`,
	`{"rows":[[-9223372036854775809]]}`, `{"rows":[[12345678901234567890123]]}`, `{"rows":[[01]]}`,
	`{"rows":[["1"]]}`, `{"rows":[[true]]}`, `{"rows":[[[1]]]}`, `{"rows":[1]}`, `{"rows":{}}`, `{"rows":"x"}`,
	// Values.
	`{"vals":[1e400]}`, `{"vals":[-1e400]}`, `{"vals":[1e-400]}`, `{"vals":[-0]}`, `{"vals":[-0.0,0.1,1E+2,2.5e-3]}`,
	`{"vals":[-]}`, `{"vals":[1.]}`, `{"vals":[1e]}`, `{"vals":[.5]}`, `{"vals":[+1]}`, `{"vals":[0x10]}`,
	`{"vals":["1"]}`, `{"vals":[[1]]}`, `{"vals":1}`, `{"buffer":1}`, `{"buffer":"true"}`, `{"buffer":truex}`,
	// Trailing bytes and other top-level values.
	`{"rows":[]} x`, `{}{}`, `[1]`, `1`, `"x"`, `true`, ``, ` `, `nul`, `{`, `{"rows"`, `{"rows":`,
	`{"rows":[[1]],}`, `{"rows":[[1],]}`, `{"rows" [[1]]}`, `{"rows""vals":[]}`, `{,}`, `{"rows":[[1] [2]]}`, `{"rows":[[1,]]}`,
}

// checkAppendParity fails unless decodeAppend and json.Unmarshal both
// refuse body, or both accept it with bit-equal rows and vals.
func checkAppendParity(t *testing.T, body []byte) {
	t.Helper()
	var want appendRequest
	wantErr := json.Unmarshal(body, &want)
	got, err := decodeAppend(body)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("body %.200q: decodeAppend error %v, json.Unmarshal error %v", body, err, wantErr)
	}
	if err == nil && !sameAppendRequest(got, want) {
		t.Fatalf("body %.200q: decodeAppend gave %#v, json.Unmarshal %#v", body, got, want)
	}
}

// sameAppendRequest compares bit for bit, nil apart from empty.
func sameAppendRequest(a, b appendRequest) bool {
	if (a.Rows == nil) != (b.Rows == nil) || len(a.Rows) != len(b.Rows) ||
		(a.Vals == nil) != (b.Vals == nil) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i, row := range a.Rows {
		if (row == nil) != (b.Rows[i] == nil) || len(row) != len(b.Rows[i]) {
			return false
		}
		for j, c := range row {
			if c != b.Rows[i][j] {
				return false
			}
		}
	}
	for i, v := range a.Vals {
		if math.Float64bits(v) != math.Float64bits(b.Vals[i]) {
			return false
		}
	}
	return true
}

// randomAppendBodies returns canonical marshals of random batches.
func randomAppendBodies(t testing.TB, n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	var out [][]byte
	for i := 0; i < n; i++ {
		var req appendRequest
		for r := rng.Intn(20); r > 0; r-- {
			row := make([]int, rng.Intn(5))
			for d := range row {
				row[d] = rng.Intn(1000) - 10
			}
			req.Rows = append(req.Rows, row)
			req.Vals = append(req.Vals, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(40)-20)))
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
	}
	return out
}

func TestDecodeAppendMatchesUnmarshal(t *testing.T) {
	for _, body := range appendBodyCases {
		checkAppendParity(t, []byte(body))
	}
	for _, body := range randomAppendBodies(t, 50) {
		for cut := 0; cut <= len(body); cut++ {
			checkAppendParity(t, body[:cut])
		}
	}
}

// TestDecodeAppendFastPath: the bodies clients send — canonical
// marshals, in any key order and with whitespace between tokens — take
// the fast path, so the parity the other tests check is the fast path's
// and not only encoding/json's.
func TestDecodeAppendFastPath(t *testing.T) {
	bodies := randomAppendBodies(t, 50)
	bodies = append(bodies,
		[]byte(`{"vals":[2.5,-1e-7],"rows":[[1,2,3],[]]}`),
		[]byte(" {\n\t\"rows\" : [ [ 1 , -2 ] ] ,\r\"vals\" : [ 3 ] } \n"))
	for _, body := range bodies {
		if _, ok := decodeCanonical(body); !ok {
			t.Fatalf("body %.200q left the fast path", body)
		}
	}
}

// TestDecodeAppendLinear: no body makes decodeAppend allocate or work
// more than in proportion to its size — not the rows clients send, not
// a key repeated after null (each repeat must not size a slice from the
// rest of the body again), nor a long string full of '[' (no capacity
// counted from raw bytes).
func TestDecodeAppendLinear(t *testing.T) {
	bodies := map[string]func(n int) []byte{
		"rows repeated": func(n int) []byte {
			return []byte(`{` + strings.Repeat(`"rows":null,"rows":[],`, n/22) + `"vals":[]}`)
		},
		"vals repeated": func(n int) []byte {
			return []byte(`{` + strings.Repeat(`"vals":null,"vals":[],`, n/22) + `"rows":[]}`)
		},
		"canonical": func(n int) []byte {
			rows := strings.Repeat(`[12,3,145],`, n/16)
			return []byte(`{"rows":[` + rows + `[1]],"vals":[` + strings.Repeat(`7.5,`, n/16) + `1]}`)
		},
		"brackets in a string": func(n int) []byte {
			return []byte(`{"rows":[[1]],"vals":[1],"x":"` + strings.Repeat("[", n) + `"}`)
		},
	}
	const small, large = 64 << 10, 512 << 10
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			cost := func(data []byte) (alloc uint64, perByte time.Duration) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := decodeAppend(data); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				perByte = time.Duration(math.MaxInt64)
				for i := 0; i < 5; i++ {
					start := time.Now()
					_, _ = decodeAppend(data)
					perByte = min(perByte, time.Since(start)/time.Duration(len(data)))
				}
				return after.TotalAlloc - before.TotalAlloc, perByte
			}
			data := body(large)
			alloc, perLarge := cost(data)
			if limit := 16*uint64(len(data)) + 1<<20; alloc > limit {
				t.Fatalf("a %d-byte body allocated %d bytes, want at most %d", len(data), alloc, limit)
			}
			if _, perSmall := cost(body(small)); perLarge > 3*perSmall+time.Nanosecond {
				t.Fatalf("%v a byte at %d bytes against %v at %d: work grows faster than the body", perLarge, large, perSmall, small)
			}
		})
	}
}

// TestDecodeAppendAllocations: a body's rows sub-slice one code slab,
// so a 500-row batch decodes in a handful of allocations, not one
// per row, each row capped at its own codes.
func TestDecodeAppendAllocations(t *testing.T) {
	req := appendRequest{}
	for i := 0; i < 500; i++ {
		req.Rows = append(req.Rows, []int{i % 100, i % 20, i % 180})
		req.Vals = append(req.Vals, float64(i)*1.25)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeAppend(body)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range got.Rows {
		if cap(row) != len(row) {
			t.Fatalf("row %d: cap %d beyond its %d codes", i, cap(row), len(row))
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = decodeAppend(body) }); allocs > 8 {
		t.Fatalf("decoding 500 rows took %v allocations, want at most 8", allocs)
	}
}

// FuzzAppendBody: for any body, decodeAppend and json.Unmarshal into
// appendRequest agree — both refuse it, or both give bit-equal rows and
// vals.
func FuzzAppendBody(f *testing.F) {
	for _, body := range appendBodyCases {
		f.Add([]byte(body))
	}
	for _, body := range randomAppendBodies(f, 20) {
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Fuzz(checkAppendParity)
}
