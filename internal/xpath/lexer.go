// Package xpath implements the lexer, parser and abstract syntax tree for
// the Demaq expression language: the XQuery 1.0 subset described in the
// paper (Sec. 3.2–3.5) extended with the XQuery Update Facility style
// queue primitives "do enqueue" and "do reset".
//
// The package is purely syntactic; static analysis, compilation and
// evaluation live in internal/xquery.
package xpath

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// TokKind classifies lexical tokens. XQuery has no reserved words: names
// are lexed as TokName and interpreted contextually by the parser.
type TokKind uint8

// Token kinds.
const (
	TokEOF    TokKind = iota
	TokName           // QName or NCName (possibly prefixed)
	TokVar            // $name
	TokString         // "..."/'...' with doubled-quote escapes and entities
	TokInteger
	TokDecimal
	TokDouble
	TokLParen   // (
	TokRParen   // )
	TokLBracket // [
	TokRBracket // ]
	TokLBrace   // {
	TokRBrace   // }
	TokComma
	TokSemicolon
	TokDot    // .
	TokDotDot // ..
	TokSlash  // /
	TokSlash2 // //
	TokAt     // @
	TokPipe   // |
	TokPlus
	TokMinus
	TokStar
	TokEq     // =
	TokNe     // !=
	TokLt     // <
	TokLe     // <=
	TokGt     // >
	TokGe     // >=
	TokAssign // :=
	TokAxis   // ::
	TokQuestion
)

func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokName:
		return "name"
	case TokVar:
		return "variable"
	case TokString:
		return "string literal"
	case TokInteger, TokDecimal, TokDouble:
		return "number"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokLBracket:
		return "'['"
	case TokRBracket:
		return "']'"
	case TokLBrace:
		return "'{'"
	case TokRBrace:
		return "'}'"
	case TokComma:
		return "','"
	case TokSemicolon:
		return "';'"
	case TokDot:
		return "'.'"
	case TokDotDot:
		return "'..'"
	case TokSlash:
		return "'/'"
	case TokSlash2:
		return "'//'"
	case TokAt:
		return "'@'"
	case TokPipe:
		return "'|'"
	case TokPlus:
		return "'+'"
	case TokMinus:
		return "'-'"
	case TokStar:
		return "'*'"
	case TokEq:
		return "'='"
	case TokNe:
		return "'!='"
	case TokLt:
		return "'<'"
	case TokLe:
		return "'<='"
	case TokGt:
		return "'>'"
	case TokGe:
		return "'>='"
	case TokAssign:
		return "':='"
	case TokAxis:
		return "'::'"
	case TokQuestion:
		return "'?'"
	}
	return "token"
}

// Token is one lexical token with its source position (byte offset and
// line/column for error messages).
type Token struct {
	Kind TokKind
	Text string // name text, string value (unescaped), numeric lexical form
	Pos  Pos
}

// Pos is a source position.
type Pos struct {
	Offset int
	Line   int
	Col    int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// SyntaxError reports a lexical or grammatical error with position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("syntax error at %s: %s", e.Pos, e.Msg)
}

// Lexer produces tokens on demand and supports resetting to a saved
// position, which the parser uses to switch into raw mode for direct
// element constructors.
type Lexer struct {
	src  []byte
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: []byte(src), line: 1, col: 1}
}

// Mark captures the current raw position.
func (l *Lexer) Mark() Pos { return Pos{Offset: l.pos, Line: l.line, Col: l.col} }

// ResetTo rewinds the lexer to a previously captured position.
func (l *Lexer) ResetTo(p Pos) {
	l.pos, l.line, l.col = p.Offset, p.Line, p.Col
}

// Source exposes the raw input for constructor parsing.
func (l *Lexer) Source() []byte { return l.src }

func (l *Lexer) errf(pos Pos, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) eof() bool { return l.pos >= len(l.src) }

func (l *Lexer) peekByte() byte {
	if l.eof() {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(i int) byte {
	if l.pos+i >= len(l.src) {
		return 0
	}
	return l.src[l.pos+i]
}

func (l *Lexer) adv() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// skipIgnorable skips whitespace and (: ... :) comments, which nest.
func (l *Lexer) skipIgnorable() error {
	for !l.eof() {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.adv()
		case c == '(' && l.peekAt(1) == ':':
			start := l.Mark()
			l.adv()
			l.adv()
			depth := 1
			for depth > 0 {
				if l.eof() {
					return l.errf(start, "unterminated comment")
				}
				if l.peekByte() == '(' && l.peekAt(1) == ':' {
					l.adv()
					l.adv()
					depth++
				} else if l.peekByte() == ':' && l.peekAt(1) == ')' {
					l.adv()
					l.adv()
					depth--
				} else {
					l.adv()
				}
			}
		default:
			return nil
		}
	}
	return nil
}

func isNameStartByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameByte(c byte) bool {
	return isNameStartByte(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipIgnorable(); err != nil {
		return Token{}, err
	}
	pos := l.Mark()
	if l.eof() {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := l.peekByte()
	switch {
	case isNameStartByte(c):
		return Token{Kind: TokName, Text: l.scanQName(), Pos: pos}, nil
	case isDigit(c):
		return l.lexNumber(pos)
	case c == '.':
		if isDigit(l.peekAt(1)) {
			return l.lexNumber(pos)
		}
		l.adv()
		if l.peekByte() == '.' {
			l.adv()
			return Token{Kind: TokDotDot, Pos: pos}, nil
		}
		return Token{Kind: TokDot, Pos: pos}, nil
	case c == '"' || c == '\'':
		return l.lexString(pos)
	case c == '$':
		l.adv()
		if !isNameStartByte(l.peekByte()) {
			return Token{}, l.errf(pos, "expected variable name after '$'")
		}
		name := l.scanQName()
		return Token{Kind: TokVar, Text: name, Pos: pos}, nil
	}
	l.adv()
	simple := func(k TokKind) (Token, error) { return Token{Kind: k, Pos: pos}, nil }
	switch c {
	case '(':
		return simple(TokLParen)
	case ')':
		return simple(TokRParen)
	case '[':
		return simple(TokLBracket)
	case ']':
		return simple(TokRBracket)
	case '{':
		return simple(TokLBrace)
	case '}':
		return simple(TokRBrace)
	case ',':
		return simple(TokComma)
	case ';':
		return simple(TokSemicolon)
	case '@':
		return simple(TokAt)
	case '|':
		return simple(TokPipe)
	case '+':
		return simple(TokPlus)
	case '-':
		return simple(TokMinus)
	case '*':
		return simple(TokStar)
	case '?':
		return simple(TokQuestion)
	case '/':
		if l.peekByte() == '/' {
			l.adv()
			return simple(TokSlash2)
		}
		return simple(TokSlash)
	case '=':
		return simple(TokEq)
	case '!':
		if l.peekByte() == '=' {
			l.adv()
			return simple(TokNe)
		}
		return Token{}, l.errf(pos, "unexpected '!'")
	case '<':
		if l.peekByte() == '=' {
			l.adv()
			return simple(TokLe)
		}
		return simple(TokLt)
	case '>':
		if l.peekByte() == '=' {
			l.adv()
			return simple(TokGe)
		}
		return simple(TokGt)
	case ':':
		if l.peekByte() == '=' {
			l.adv()
			return simple(TokAssign)
		}
		if l.peekByte() == ':' {
			l.adv()
			return simple(TokAxis)
		}
		return Token{}, l.errf(pos, "unexpected ':'")
	}
	return Token{}, l.errf(pos, "unexpected character %q", string(rune(c)))
}

// scanQName scans NCName(:NCName)?. The leading character is known valid.
func (l *Lexer) scanQName() string {
	start := l.pos
	for !l.eof() && isNameByte(l.peekByte()) {
		l.adv()
	}
	// Prefixed name: a single ':' followed by a name start, but not '::'
	// (axis) and not ':=' (assign).
	if !l.eof() && l.peekByte() == ':' && isNameStartByte(l.peekAt(1)) && l.peekAt(1) != ':' {
		// Check it is not an axis specifier like child::name. The only way
		// to distinguish "child::x" from a QName is the double colon, which
		// the isNameStartByte(l.peekAt(1)) test already excludes since ':'
		// is not a name start in this lexer.
		l.adv() // ':'
		for !l.eof() && isNameByte(l.peekByte()) {
			l.adv()
		}
	}
	return string(l.src[start:l.pos])
}

func (l *Lexer) lexNumber(pos Pos) (Token, error) {
	start := l.pos
	kind := TokInteger
	for !l.eof() && isDigit(l.peekByte()) {
		l.adv()
	}
	if !l.eof() && l.peekByte() == '.' && isDigit(l.peekAt(1)) {
		kind = TokDecimal
		l.adv()
		for !l.eof() && isDigit(l.peekByte()) {
			l.adv()
		}
	} else if !l.eof() && l.peekByte() == '.' && !isNameStartByte(l.peekAt(1)) && l.peekAt(1) != '.' {
		// "1." form
		kind = TokDecimal
		l.adv()
	}
	if !l.eof() && (l.peekByte() == 'e' || l.peekByte() == 'E') {
		n1 := l.peekAt(1)
		n2 := l.peekAt(2)
		if isDigit(n1) || ((n1 == '+' || n1 == '-') && isDigit(n2)) {
			kind = TokDouble
			l.adv()
			if l.peekByte() == '+' || l.peekByte() == '-' {
				l.adv()
			}
			for !l.eof() && isDigit(l.peekByte()) {
				l.adv()
			}
		}
	}
	return Token{Kind: kind, Text: string(l.src[start:l.pos]), Pos: pos}, nil
}

func (l *Lexer) lexString(pos Pos) (Token, error) {
	quote := l.adv()
	var sb strings.Builder
	for {
		if l.eof() {
			return Token{}, l.errf(pos, "unterminated string literal")
		}
		if l.peekByte() == '&' {
			ent, err := l.lexEntity()
			if err != nil {
				return Token{}, err
			}
			sb.WriteString(ent)
			continue
		}
		c := l.adv()
		if c == quote {
			// Doubled quote is an escape.
			if l.peekByte() == quote {
				l.adv()
				sb.WriteByte(quote)
				continue
			}
			return Token{Kind: TokString, Text: sb.String(), Pos: pos}, nil
		}
		sb.WriteByte(c)
	}
}

// lexEntity decodes the predefined entity or character reference at '&'.
// String literals and constructor content and attributes share it.
func (l *Lexer) lexEntity() (string, error) {
	pos := l.Mark()
	l.adv() // '&'
	start := l.pos
	for !l.eof() && l.peekByte() != ';' {
		if l.pos-start > 10 {
			return "", l.errf(pos, "unterminated entity reference")
		}
		l.adv()
	}
	if l.eof() {
		return "", l.errf(pos, "unterminated entity reference")
	}
	name := string(l.src[start:l.pos])
	l.adv() // ';'
	switch name {
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "amp":
		return "&", nil
	case "apos":
		return "'", nil
	case "quot":
		return "\"", nil
	}
	if num, ok := strings.CutPrefix(name, "#"); ok {
		radix := 10
		if strings.HasPrefix(num, "x") || strings.HasPrefix(num, "X") {
			num, radix = num[1:], 16
		}
		cp, err := strconv.ParseUint(num, radix, 32)
		if err != nil || !utf8.ValidRune(rune(cp)) || cp == 0 {
			return "", l.errf(pos, "invalid character reference &%s;", name)
		}
		return string(rune(cp)), nil
	}
	return "", l.errf(pos, "unknown entity &%s;", name)
}
