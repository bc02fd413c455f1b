// Package sacvm implements an interpreter for Core SaC as described in §2
// of the paper: a functional, side-effect free variant of C extended with
// n-dimensional state-less arrays and with-loop array comprehensions
// (genarray, modarray, fold).
//
// The subset covers everything the paper's programs use: multi-value
// returns, assignment sequences (interpreted as nested let-expressions),
// branches, for/while loops (syntactic sugar for tail recursion), array
// literals, vector and multi-scalar selection, user-defined infix ++, and
// the snet_out interface function for embedding functions as S-Net boxes.
// With-loops execute data-parallel on an internal/sched pool, standing in
// for SaC's multithreaded code generation.
package sacvm

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Pos is a 1-based source position.
type Pos struct{ Line, Col int }

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Error is a lex, parse or evaluation failure.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("sac: %s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

type kind int

const (
	tEOF kind = iota
	tIdent
	tInt
	tDouble
	tLBrace
	tRBrace
	tLParen
	tRParen
	tLBrack
	tRBrack
	tComma
	tSemi
	tColon
	tDot
	tAssign
	tPlus
	tMinus
	tStar
	tSlash
	tPercent
	tPlusPlus // vector concatenation / postfix increment
	tEq
	tNeq
	tLt
	tLe
	tGt
	tGe
	tAnd
	tOr
	tNot
)

var kindName = map[kind]string{
	tEOF: "end of input", tIdent: "identifier", tInt: "integer", tDouble: "double",
	tLBrace: "'{'", tRBrace: "'}'", tLParen: "'('", tRParen: "')'",
	tLBrack: "'['", tRBrack: "']'", tComma: "','", tSemi: "';'", tColon: "':'", tDot: "'.'",
	tAssign: "'='", tPlus: "'+'", tMinus: "'-'", tStar: "'*'", tSlash: "'/'",
	tPercent: "'%'", tPlusPlus: "'++'", tEq: "'=='", tNeq: "'!='",
	tLt: "'<'", tLe: "'<='", tGt: "'>'", tGe: "'>='",
	tAnd: "'&&'", tOr: "'||'", tNot: "'!'",
}

func (k kind) String() string { return kindName[k] }

type tok struct {
	kind kind
	text string
	pos  Pos
}

// lexAll splits src into tokens.  Token texts are slices of src, and
// columns count runes.
func lexAll(src string) ([]tok, error) {
	// About one token per three bytes in typical SaC source.
	toks := make([]tok, 0, len(src)/3+1)
	line, col := 1, 1
	i := 0
	// adv moves past n bytes.
	adv := func(n int) {
		for _, b := range []byte(src[i : i+n]) {
			switch {
			case b == '\n':
				line++
				col = 1
			case b&0xC0 != 0x80: // not a UTF-8 continuation byte
				col++
			}
		}
		i += n
	}
	peekAt := func(off int) byte {
		if i+off >= len(src) {
			return 0
		}
		return src[i+off]
	}
	for {
		// skip whitespace and comments
		for i < len(src) {
			c := src[i]
			if c == ' ' || c == '\t' || c == '\r' {
				i++
				col++
				continue
			}
			if c == '\n' {
				i++
				line++
				col = 1
				continue
			}
			if c == '/' && peekAt(1) == '/' {
				n := strings.IndexByte(src[i:], '\n')
				if n < 0 {
					n = len(src) - i
				}
				adv(n)
				continue
			}
			if c == '/' && peekAt(1) == '*' {
				n := strings.Index(src[i+2:], "*/")
				if n < 0 {
					return nil, errf(Pos{line, col}, "unterminated comment")
				}
				adv(n + 4)
				continue
			}
			break
		}
		pos := Pos{line, col}
		if i >= len(src) {
			toks = append(toks, tok{kind: tEOF, pos: pos})
			return toks, nil
		}
		r := rune(src[i])
		if r >= utf8.RuneSelf {
			r, _ = utf8.DecodeRuneInString(src[i:])
		}
		switch {
		case r == '_' || unicode.IsLetter(r):
			start := i
			for i < len(src) {
				if c := src[i]; c < utf8.RuneSelf {
					if c != '_' && !isDigit(c) && !('a' <= c|0x20 && c|0x20 <= 'z') {
						break
					}
					i++
					col++
					continue
				}
				r, size := utf8.DecodeRuneInString(src[i:])
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					break
				}
				i += size
				col++
			}
			toks = append(toks, tok{kind: tIdent, text: src[start:i], pos: pos})
			continue
		case isDigit(src[i]):
			start := i
			k := tInt
			for i < len(src) && isDigit(src[i]) {
				i++
			}
			if peekAt(0) == '.' && isDigit(peekAt(1)) {
				k = tDouble
				i++
				for i < len(src) && isDigit(src[i]) {
					i++
				}
			}
			col += i - start
			toks = append(toks, tok{kind: k, text: src[start:i], pos: pos})
			continue
		}
		k, n := punct(src[i:])
		switch {
		case n > 0:
			adv(n)
			toks = append(toks, tok{kind: k, pos: pos})
		case r == '&' || r == '|':
			return nil, errf(pos, "unexpected '%c'", r)
		default:
			return nil, errf(pos, "unexpected character %q", string(r))
		}
	}
}

// punct matches the operator or delimiter at the start of s, returning its
// length in bytes (0 for none).
func punct(s string) (kind, int) {
	if len(s) > 1 {
		switch s[:2] {
		case "++":
			return tPlusPlus, 2
		case "==":
			return tEq, 2
		case "!=":
			return tNeq, 2
		case "<=":
			return tLe, 2
		case ">=":
			return tGe, 2
		case "&&":
			return tAnd, 2
		case "||":
			return tOr, 2
		}
	}
	if s[0] < utf8.RuneSelf && punct1[s[0]] != tEOF {
		return punct1[s[0]], 1
	}
	return tEOF, 0
}

// punct1 maps the one-byte operators and delimiters to their kinds.
var punct1 = [utf8.RuneSelf]kind{
	'{': tLBrace, '}': tRBrace, '(': tLParen, ')': tRParen, '[': tLBrack, ']': tRBrack,
	',': tComma, ';': tSemi, ':': tColon, '.': tDot, '=': tAssign, '+': tPlus, '-': tMinus,
	'*': tStar, '/': tSlash, '%': tPercent, '<': tLt, '>': tGt, '!': tNot,
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
