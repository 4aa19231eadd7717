// Package query provides a concise statistical query language over
// statistical objects, embodying the "automatic aggregation" of [S82]
// (Section 5.1 of Shoshani's OLAP-vs-SDB survey): the user circles a
// handful of conditions; dimension semantics imply the rest. The paper's
// Figure 13 query —
//
//	SHOW average income WHERE year = 1980 AND professional class = engineer
//
// — names a leaf-level value of one dimension and a non-leaf category of
// another; everything unmentioned (sex) is summarized over, the rollup to
// "professional class" is inferred from the level the condition names, and
// the measure and summary function come from the S-node. The equivalent
// SQL would need nested GROUP BY/JOIN boilerplate.
//
// Grammar (case-insensitive keywords):
//
//	query  := SHOW measure [BY name (, name)*] [WHERE cond (AND cond)*]
//	cond   := name = value | name IN ( value (, value)* )
//	name   := identifier of a dimension or classification level,
//	          optionally qualified as dimension.level
//	value  := word or 'single-quoted string'
//
// BY keeps a dimension in the result, rolled up to the named level; WHERE
// restricts and (for non-leaf levels) rolls up. Dimensions absent from
// both are summarized away.
package query

import (
	"errors"
	"fmt"
	"strings"

	"statcube/internal/core"
)

// Errors surfaced by parsing and resolution.
var (
	ErrSyntax    = errors.New("query: syntax error")
	ErrUnknown   = errors.New("query: unknown dimension or level")
	ErrAmbiguous = errors.New("query: ambiguous level name; qualify as dimension.level")
)

// Query is a parsed concise query.
type Query struct {
	Measure string
	By      []string
	Where   []Cond
	text    string // the input Parse read, for the flight record
}

// Cond is one condition: a dimension-or-level name and its values.
type Cond struct {
	Name   string
	Values []core.Value
}

// Parse parses the concise language.
func Parse(input string) (*Query, error) {
	toks, err := tokenize(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q := &Query{text: input}
	if !p.eatKeyword("show") {
		return nil, fmt.Errorf("%w: query must start with SHOW", ErrSyntax)
	}
	// Measure: words until BY, WHERE or end.
	var mwords []string
	for !p.done() && !p.peekKeyword("by") && !p.peekKeyword("where") {
		w, ok := p.next().(word)
		if !ok {
			return nil, fmt.Errorf("%w: unexpected token in measure name", ErrSyntax)
		}
		mwords = append(mwords, string(w))
	}
	q.Measure = strings.Join(mwords, " ")
	if strings.TrimSpace(q.Measure) == "" {
		return nil, fmt.Errorf("%w: missing measure", ErrSyntax)
	}
	if p.eatKeyword("by") {
		for {
			name, err := p.name(func() bool { return p.peekKeyword("where") || p.peek(comma{}) })
			if err != nil {
				return nil, err
			}
			q.By = append(q.By, name)
			if !p.eat(comma{}) {
				break
			}
		}
	}
	if p.eatKeyword("where") {
		for {
			cond, err := p.cond()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, cond)
			if !p.eatKeyword("and") {
				break
			}
		}
	}
	if !p.done() {
		return nil, fmt.Errorf("%w: trailing tokens", ErrSyntax)
	}
	return q, nil
}

// --- tokenizer ---

type token interface{ tok() }

type word string
type symbol byte // '=', '(', ')'
type comma struct{}

func (word) tok()   {}
func (symbol) tok() {}
func (comma) tok()  {}

func tokenize(s string) ([]token, error) {
	var out []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == ',':
			out = append(out, comma{})
			i++
		case c == '=' || c == '(' || c == ')':
			out = append(out, symbol(c))
			i++
		case c == '\'':
			j := strings.IndexByte(s[i+1:], '\'')
			if j < 0 {
				return nil, fmt.Errorf("%w: unterminated quote", ErrSyntax)
			}
			out = append(out, word(s[i+1:i+1+j]))
			i += j + 2
		default:
			j := i
			for j < len(s) && !strings.ContainsRune(" \t\n,=()'", rune(s[j])) {
				j++
			}
			out = append(out, word(s[i:j]))
			i = j
		}
	}
	return out, nil
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
}

func (p *parser) done() bool { return p.pos >= len(p.toks) }

func (p *parser) next() token {
	t := p.toks[p.pos]
	p.pos++
	return t
}

func (p *parser) peek(t token) bool {
	if p.done() {
		return false
	}
	return p.toks[p.pos] == t
}

func (p *parser) eat(t token) bool {
	if p.peek(t) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) peekKeyword(kw string) bool {
	if p.done() {
		return false
	}
	w, ok := p.toks[p.pos].(word)
	return ok && strings.EqualFold(string(w), kw)
}

func (p *parser) eatKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

// name consumes words until '=', "IN", a comma, or the stop condition,
// joining them with spaces ("professional class").
func (p *parser) name(stop func() bool) (string, error) {
	var words []string
	for !p.done() && !p.peek(symbol('=')) && !p.peekKeyword("in") && !p.peek(comma{}) {
		if stop != nil && stop() {
			break
		}
		w, ok := p.toks[p.pos].(word)
		if !ok {
			break
		}
		words = append(words, string(w))
		p.pos++
	}
	name := strings.Join(words, " ")
	if strings.TrimSpace(name) == "" {
		return "", fmt.Errorf("%w: expected a name", ErrSyntax)
	}
	return name, nil
}

func (p *parser) cond() (Cond, error) {
	name, err := p.name(func() bool { return p.peekKeyword("and") })
	if err != nil {
		return Cond{}, err
	}
	switch {
	case p.eat(symbol('=')):
		val, err := p.value()
		if err != nil {
			return Cond{}, err
		}
		return Cond{Name: name, Values: []core.Value{val}}, nil
	case p.eatKeyword("in"):
		if !p.eat(symbol('(')) {
			return Cond{}, fmt.Errorf("%w: expected ( after IN", ErrSyntax)
		}
		var vals []core.Value
		for {
			v, err := p.value()
			if err != nil {
				return Cond{}, err
			}
			vals = append(vals, v)
			if p.eat(comma{}) {
				continue
			}
			break
		}
		if !p.eat(symbol(')')) {
			return Cond{}, fmt.Errorf("%w: expected ) closing IN list", ErrSyntax)
		}
		return Cond{Name: name, Values: vals}, nil
	default:
		return Cond{}, fmt.Errorf("%w: expected = or IN after %q", ErrSyntax, name)
	}
}

// value consumes words until a comma, ')' or keyword boundary, joining
// with spaces ("civil engineer").
func (p *parser) value() (core.Value, error) {
	var words []string
	for !p.done() && !p.peek(comma{}) && !p.peek(symbol(')')) && !p.peekKeyword("and") {
		w, ok := p.toks[p.pos].(word)
		if !ok {
			break
		}
		words = append(words, string(w))
		p.pos++
	}
	val := strings.Join(words, " ")
	if strings.TrimSpace(val) == "" {
		return "", fmt.Errorf("%w: expected a value", ErrSyntax)
	}
	return core.Value(val), nil
}
