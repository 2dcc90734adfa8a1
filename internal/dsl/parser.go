package dsl

import (
	"fmt"
	"sort"
	"strings"
)

// ops lists the recognised DSL operations (Listings 1 and 2).
var ops = map[string]bool{
	"TaskGraph": true, "Task": true, "Stream": true,
	"Parallel": true, "Overlap": true, "Serial": true, "Synchronize": true,
	"Schedule": true, "Isolate": true, "Place": true, "Restore": true,
	"Learn": true, "Persist": true,
}

// Parse tokenizes and parses DSL source into a Program.
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	for p.peek().kind != tokEOF {
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog.Statements = append(prog.Statements, st)
	}
	if len(prog.Statements) == 0 {
		return nil, fmt.Errorf("dsl: empty program")
	}
	return prog, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.advance()
	if t.kind != kind {
		return t, fmt.Errorf("line %d: expected %s, got %s", t.line, what, t)
	}
	return t, nil
}

// statement parses Op(arg, key=value, ...).
func (p *parser) statement() (Statement, error) {
	name, err := p.expect(tokIdent, "operation name")
	if err != nil {
		return Statement{}, err
	}
	if !ops[name.text] {
		return Statement{}, fmt.Errorf("line %d: unknown operation %q (known: %s)",
			name.line, name.text, strings.Join(knownOps(), ", "))
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return Statement{}, err
	}
	st := Statement{Op: name.text, Line: name.line}
	if p.peek().kind == tokRParen {
		p.advance()
		return st, nil
	}
	for {
		arg, err := p.arg()
		if err != nil {
			return Statement{}, err
		}
		st.Args = append(st.Args, arg)
		switch t := p.advance(); t.kind {
		case tokComma:
			// Trailing comma before ')' is tolerated.
			if p.peek().kind == tokRParen {
				p.advance()
				return st, nil
			}
		case tokRParen:
			return st, nil
		default:
			return Statement{}, fmt.Errorf("line %d: expected ',' or ')', got %s", t.line, t)
		}
	}
}

// arg parses value or key=value.
func (p *parser) arg() (Arg, error) {
	// Lookahead for key=.
	if p.peek().kind == tokIdent && p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokEquals {
		key := p.advance().text
		p.advance() // '='
		v, err := p.value()
		if err != nil {
			return Arg{}, err
		}
		return Arg{Key: key, Value: v}, nil
	}
	v, err := p.value()
	if err != nil {
		return Arg{}, err
	}
	return Arg{Value: v}, nil
}

func (p *parser) value() (Value, error) {
	t := p.advance()
	switch t.kind {
	case tokString:
		return Value{Kind: ValString, Str: t.text}, nil
	case tokNumber:
		return Value{Kind: ValNumber, Str: t.text}, nil
	case tokIdent:
		if t.text == "None" {
			return Value{Kind: ValNone, IsNone: true}, nil
		}
		return Value{Kind: ValIdent, Str: t.text}, nil
	case tokLBracket:
		list := Value{Kind: ValList}
		if p.peek().kind == tokRBracket {
			p.advance()
			return list, nil
		}
		for {
			item, err := p.value()
			if err != nil {
				return Value{}, err
			}
			// Named items inside lists (constraint=[execTime='10s']) are
			// flattened to "key=value" strings by the analyzer; here we
			// support ident '=' value inside lists.
			if item.Kind == ValIdent && p.peek().kind == tokEquals {
				p.advance()
				rhs, err := p.value()
				if err != nil {
					return Value{}, err
				}
				item = Value{Kind: ValString, Str: item.Str + "=" + rhs.Str}
				if rhs.Kind == ValNumber {
					item.Str = fmt.Sprintf("%s=%s", strings.SplitN(item.Str, "=", 2)[0], rhs.Str)
				}
			}
			list.List = append(list.List, item)
			switch nt := p.advance(); nt.kind {
			case tokComma:
				if p.peek().kind == tokRBracket {
					p.advance()
					return list, nil
				}
			case tokRBracket:
				return list, nil
			default:
				return Value{}, fmt.Errorf("line %d: expected ',' or ']', got %s", nt.line, nt)
			}
		}
	default:
		return Value{}, fmt.Errorf("line %d: expected a value, got %s", t.line, t)
	}
}

func knownOps() []string {
	out := make([]string, 0, len(ops))
	for k := range ops {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
