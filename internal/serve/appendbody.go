package serve

import (
	"encoding/json"
	"strconv"
)

// decodeAppend parses a POST /append body into an appendRequest. The
// body clients send — one object holding "rows" and "vals", each
// spelled exactly so, given at most once and perhaps null (what
// json.Marshal writes for a nil slice), with integer codes, numeric
// values and JSON whitespace between tokens — is read in one
// pass without reflection: the codes go into one slab the rows
// sub-slice, the values into one slice. Any other body, valid or not,
// goes to json.Unmarshal. So decodeAppend's result or refusal is
// Unmarshal's on every body by construction, provided the fast path
// decodes what it accepts exactly as Unmarshal would; FuzzAppendBody
// holds it to that. The fast path does linear work and allocates at
// most a capped hint beyond what it decodes, so a body it gives up on
// costs little more than Unmarshal's own pass.
func decodeAppend(data []byte) (appendRequest, error) {
	if req, ok := decodeCanonical(data); ok {
		return req, nil
	}
	var req appendRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return appendRequest{}, err
	}
	return req, nil
}

// decodeCanonical is decodeAppend's fast path: the request, or false
// when data is not exactly the shape it reads.
func decodeCanonical(data []byte) (req appendRequest, ok bool) {
	p := &bodyScan{data: data}
	if !p.next('{') {
		return req, false
	}
	var rows, vals bool // the fields seen
	if !p.next('}') {
		for {
			switch {
			case !rows && p.key(`"rows"`):
				rows = true
				req.Rows, ok = p.rows()
			case !vals && p.key(`"vals"`):
				vals = true
				req.Vals, ok = p.vals()
			default:
				ok = false
			}
			if !ok {
				return req, false
			}
			if p.next('}') {
				break
			}
			if !p.next(',') {
				return req, false
			}
		}
	}
	p.space()
	return req, p.off == len(p.data)
}

// bodyScan is decodeCanonical's cursor over the body.
type bodyScan struct {
	data []byte
	off  int
}

// space skips JSON whitespace.
func (p *bodyScan) space() {
	for p.off < len(p.data) {
		switch p.data[p.off] {
		case ' ', '\t', '\n', '\r':
			p.off++
		default:
			return
		}
	}
}

// next skips whitespace and passes over c if it comes next.
func (p *bodyScan) next(c byte) bool {
	p.space()
	if p.off < len(p.data) && p.data[p.off] == c {
		p.off++
		return true
	}
	return false
}

// word skips whitespace and passes over w if it comes next.
func (p *bodyScan) word(w string) bool {
	p.space()
	if len(p.data)-p.off < len(w) || string(p.data[p.off:p.off+len(w)]) != w {
		return false
	}
	p.off += len(w)
	return true
}

// key passes over the quoted key and its colon if they come next, and
// over nothing else.
func (p *bodyScan) key(quoted string) bool {
	at := p.off
	if p.word(quoted) && p.next(':') {
		return true
	}
	p.off = at
	return false
}

// hint is a capacity for a slice of one element per `per` body bytes
// still to read, capped so that a body given up on later has cost
// little: a longer slice grows by append.
func (p *bodyScan) hint(per int) int { return min((len(p.data)-p.off)/per, 1<<14) }

// array passes over an array of elements, each read by elem.
func (p *bodyScan) array(elem func() bool) bool {
	if !p.next('[') {
		return false
	}
	if p.next(']') {
		return true
	}
	for {
		if p.space(); !elem() {
			return false
		}
		if p.next(']') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// rows reads the rows array, or null. A row sub-slices the code slab,
// capped at its own codes; an empty row is an empty, non-nil slice, as
// Unmarshal leaves it.
func (p *bodyScan) rows() ([][]int, bool) {
	if p.word("null") {
		return nil, true
	}
	rows, slab := make([][]int, 0, p.hint(12)), make([]int, 0, p.hint(4))
	ok := p.array(func() bool {
		start := len(slab)
		if !p.array(func() bool {
			c, ok := p.code()
			slab = append(slab, c)
			return ok
		}) {
			return false
		}
		rows = append(rows, slab[start:len(slab):len(slab)])
		return true
	})
	return rows, ok
}

// code reads an integer literal within int: a fraction, an exponent or
// an out-of-range literal ends the fast path, as Unmarshal refuses each.
func (p *bodyScan) code() (int, bool) {
	lit, ok := p.number()
	if !ok {
		return 0, false
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 19 {
		return 0, false
	}
	var u uint64
	for _, c := range lit {
		if c < '0' || '9' < c {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	limit := uint64(1) << (strconv.IntSize - 1) // -limit is the least int
	switch {
	case u < limit && neg:
		return -int(u), true
	case u < limit:
		return int(u), true
	case u == limit && neg:
		return -int(limit-1) - 1, true
	}
	return 0, false
}

// vals reads the vals array, or null, each value parsed as Unmarshal
// parses a float64: strconv.ParseFloat of the literal.
func (p *bodyScan) vals() ([]float64, bool) {
	if p.word("null") {
		return nil, true
	}
	vals := make([]float64, 0, p.hint(6))
	ok := p.array(func() bool {
		lit, ok := p.number()
		if !ok {
			return false
		}
		f, err := strconv.ParseFloat(string(lit), 64)
		vals = append(vals, f)
		return err == nil
	})
	return vals, ok
}

// number passes over a JSON number and returns its literal.
func (p *bodyScan) number() ([]byte, bool) {
	start := p.off
	digits := func() int {
		from := p.off
		for p.off < len(p.data) && '0' <= p.data[p.off] && p.data[p.off] <= '9' {
			p.off++
		}
		return p.off - from
	}
	if p.off < len(p.data) && p.data[p.off] == '-' {
		p.off++
	}
	switch {
	case p.off < len(p.data) && p.data[p.off] == '0':
		p.off++
	case digits() == 0:
		return nil, false
	}
	if p.off < len(p.data) && p.data[p.off] == '.' {
		p.off++
		if digits() == 0 {
			return nil, false
		}
	}
	if p.off < len(p.data) && (p.data[p.off] == 'e' || p.data[p.off] == 'E') {
		p.off++
		if p.off < len(p.data) && (p.data[p.off] == '+' || p.data[p.off] == '-') {
			p.off++
		}
		if digits() == 0 {
			return nil, false
		}
	}
	return p.data[start:p.off], true
}
