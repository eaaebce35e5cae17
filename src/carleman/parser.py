"""Text format for recurrence systems.

A system is a `vars:` header followed by one equation per declared
variable, one equation per line:

    vars: u, v
    u[i] = 8*u[i-1] + 10*v[i-1] + u[i-1]^2
    v[i] = -3*u[i-1] + v[i-1]^2

Right-hand sides are polynomial expressions in lagged references
`name[i-j]` with j >= 1. Multiplication is always explicit (`*`),
exponents are non-negative integer literals, and `/` is legal only
inside a rational literal such as `3/4` (written without spaces).
Decimal literals like `0.5` mean the exact decimal fraction.

parse_system() splits the text into tokens with one regular expression,
then one recursive descent checks names and lags and builds each
right-hand side directly as an exact Poly over the flattened lag
variables (lag-1 variables first, then lag-2, and so on). The depth, and
so the width of every Poly, is read from the tokens before the first
equation. A lexical error anywhere is reported first; after that, the
first error the descent reads, a float literal too large for a double
included. In Float mode each coefficient is then rounded once, one that
overflows a double refused at its equation, and the exact system rides
along as PolySystem.exact.
pretty_print() renders a system back to canonical text: terms in
descending total degree, ties in the monomial-basis order, coefficient
1 omitted, exponent 1 omitted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CarlemanError, NonPolynomialError, ParseError, SourceSpan
from .poly import Poly, render_monomial
from .scalars import Mode, format_scalar, split_sign
from .systems import PolySystem

# -- lexer ----------------------------------------------------------------

_SIMPLE_TOKENS = {
    "+": "PLUS", "-": "MINUS", "*": "STAR", "^": "CARET", "/": "SLASH",
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
    "=": "EQUALS", ",": "COMMA", ":": "COLON",
}

# \d is a decimal digit (what Fraction reads), \w a letter, digit or '_';
# a word starting with neither a letter nor '_' (such as '²') is refused
_TOKEN = re.compile("|".join(
    [r"(?P<NUMBER>\d+(?:\.\d+|/\d+)?)", r"(?P<IDENT>\w+)", r"(?P<NEWLINE>\n)",
     r"(?P<SPACE>[ \t\r]+)"]
    + [f"(?P<{kind}>{re.escape(ch)})" for ch, kind in _SIMPLE_TOKENS.items()]
    + [r"(?P<OTHER>.)"]))


@dataclass
class Token:
    kind: str
    text: str
    span: SourceSpan
    value: Optional[Fraction] = None


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, lexeme = match.lastgroup, match.group()
        start, end = match.span()
        span = SourceSpan(start, end, line, start - line_start + 1)
        if kind == "NEWLINE":
            if tokens and tokens[-1].kind != "NEWLINE":
                tokens.append(Token(kind, lexeme, span))
            line, line_start = line + 1, end
        elif kind == "NUMBER":
            try:
                value = Fraction(lexeme)
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in literal {lexeme!r}", span)
            except ValueError:  # past Python's limit on integer digits
                raise ParseError(f"literal too long ({len(lexeme)} characters)", span)
            tokens.append(Token(kind, lexeme, span, value))
        elif kind == "OTHER" or (kind == "IDENT" and not (lexeme[0].isalpha()
                                                          or lexeme[0] == "_")):
            raise ParseError(f"unexpected character {lexeme[0]!r}",
                             SourceSpan(start, start + 1, span.line, span.column))
        elif kind != "SPACE":
            tokens.append(Token(kind, lexeme, span))
    end_span = SourceSpan(len(text), len(text), line, len(text) - line_start + 1)
    if tokens and tokens[-1].kind != "NEWLINE":
        tokens.append(Token("NEWLINE", "", end_span))
    tokens.append(Token("EOF", "", end_span))
    return tokens


def _is_uint(tok: Token) -> bool:
    return tok.kind == "NUMBER" and tok.text.isdecimal()


def _depth(tokens: List[Token]) -> int:
    """The largest lag j in any `[i-j`, at least 1. On text that parses,
    every such run is a right-side reference."""
    return max([1] + [int(tokens[t + 3].text) for t in range(len(tokens) - 3)
                      if tokens[t].kind == "LBRACK" and tokens[t + 1].text == "i"
                      and tokens[t + 2].kind == "MINUS" and _is_uint(tokens[t + 3])])


# -- recursive descent --------------------------------------------------------

_DIVISION = "division is only allowed inside a rational literal like 3/4"


class _Parser:
    """One pass over the tokens; each expression method returns the exact
    Poly it denotes, over depth * k flattened variables."""

    def __init__(self, tokens: List[Token], mode: Mode):
        self.tokens = tokens
        self.pos = 0
        self.mode = mode  # in Float mode, a literal past a double is refused
        self.spans: Dict[str, SourceSpan] = {}  # each equation's name

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text!r}" if tok.text
                             else f"expected {what}, found end of input", tok.span)
        return self.advance()

    def parse_system(self) -> Tuple[PolySystem, List[str]]:
        names, name_spans = self.parse_header()
        self.index_of = {name: l for l, name in enumerate(names)}
        depth = _depth(self.tokens)
        self.width = depth * len(names)
        polys: Dict[str, Poly] = {}
        while self.peek().kind != "EOF":
            name_tok, poly = self.parse_equation()
            if name_tok.text in polys:
                raise ParseError(f"duplicate equation for {name_tok.text!r}",
                                 name_tok.span)
            polys[name_tok.text] = poly
            self.spans[name_tok.text] = name_tok.span
        for name, span in zip(names, name_spans):
            if name not in polys:
                raise ParseError(f"missing equation for declared variable {name!r}",
                                 span)
        return PolySystem(k=len(names), depth=depth, mode=Mode.EXACT,
                          polys=tuple(polys[name] for name in names)), names

    # header: 'vars' ':' ident (',' ident)*
    def parse_header(self) -> Tuple[List[str], List[SourceSpan]]:
        lead = self.peek()
        if lead.kind != "IDENT" or lead.text != "vars":
            raise ParseError("expected 'vars:' header", lead.span)
        self.advance()
        self.expect("COLON", "':' after 'vars'")
        names: List[str] = []
        spans: List[SourceSpan] = []
        while True:
            tok = self.expect("IDENT", "a variable name")
            if tok.text == "i":
                raise ParseError("'i' is reserved for the recurrence index", tok.span)
            if tok.text in names:
                raise ParseError(f"variable {tok.text!r} declared twice", tok.span)
            names.append(tok.text)
            spans.append(tok.span)
            if self.peek().kind == "COMMA":
                self.advance()
                continue
            break
        self.expect("NEWLINE", "end of header line")
        return names, spans

    def indexed_name(self, name_tok: Token, side: str) -> None:
        """A declared name_tok, then '[i'; side begins the error for another index."""
        if name_tok.text not in self.index_of:
            raise ParseError(f"undeclared variable {name_tok.text!r}", name_tok.span)
        self.expect("LBRACK", "'[' after the variable name")
        idx_tok = self.expect("IDENT", "the recurrence index 'i'")
        if idx_tok.text != "i":
            raise ParseError(f"{side} must be indexed by 'i'", idx_tok.span)

    def parse_equation(self) -> Tuple[Token, Poly]:
        name_tok = self.expect("IDENT", "a variable name starting an equation")
        self.indexed_name(name_tok, "the left side")
        self.expect("RBRACK", "']' closing the left side (left sides are not lagged)")
        self.expect("EQUALS", "'='")
        rhs = self.parse_expr()
        if self.peek().kind not in ("NEWLINE", "EOF"):
            raise ParseError(
                "expected '+', '-', or end of equation "
                "(multiplication must use an explicit '*')", self.peek().span)
        self.advance()
        return name_tok, rhs

    def parse_expr(self) -> Poly:
        poly = self.parse_term()
        while self.peek().kind in ("PLUS", "MINUS"):
            plus = self.advance().kind == "PLUS"
            right = self.parse_term()
            poly = poly + right if plus else poly - right
        return poly

    def parse_term(self) -> Poly:
        poly = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "STAR":
                self.advance()
                poly = poly.mul_truncated(self.parse_factor())
            elif tok.kind == "SLASH":
                raise NonPolynomialError(_DIVISION, tok.span)
            else:
                return poly

    def parse_factor(self) -> Poly:
        poly = self.parse_base()
        if self.peek().kind != "CARET":
            return poly
        caret = self.advance()
        exp_tok = self.peek()
        if not _is_uint(exp_tok):
            raise ParseError("exponent must be a non-negative integer literal",
                             exp_tok.span if exp_tok.kind != "EOF" else caret.span)
        self.advance()
        e = int(exp_tok.text)  # pow_truncated(0) is the int 1, not a Fraction
        return poly.pow_truncated(e) if e else Poly.constant(self.width, Fraction(1))

    def parse_base(self) -> Poly:
        tok = self.peek()
        if tok.kind in ("PLUS", "MINUS") and self.peek(1).kind == "NUMBER":
            self.advance()
            value = self.advance().value
            return self.constant(value if tok.kind == "PLUS" else -value, tok.span)
        if tok.kind == "NUMBER":
            self.advance()
            return self.constant(tok.value, tok.span)
        if tok.kind == "IDENT":
            return self.parse_var_ref()
        if tok.kind == "LPAREN":
            self.advance()
            poly = self.parse_expr()
            self.expect("RPAREN", "')'")
            return poly
        if tok.kind == "SLASH":
            raise NonPolynomialError(_DIVISION, tok.span)
        found = f", found {tok.text!r}" if tok.text else ""
        raise ParseError(f"expected a number, variable reference, or '('{found}",
                         tok.span)

    def constant(self, value: Fraction, span: SourceSpan) -> Poly:
        """An exact literal; in Float mode one too large for a double is refused."""
        try:
            self.mode.from_fraction(value)
        except CarlemanError as exc:
            raise ParseError(str(exc), span) from exc
        return Poly.constant(self.width, value)

    def parse_var_ref(self) -> Poly:
        name_tok = self.advance()
        self.indexed_name(name_tok, "references")
        nxt = self.peek()
        if nxt.kind == "RBRACK":
            raise ParseError(
                f"right-side references need a positive lag: {name_tok.text}[i-1]",
                nxt.span)
        if nxt.kind != "MINUS":
            raise ParseError("expected '-' introducing the lag", nxt.span)
        self.advance()
        lag_tok = self.peek()
        if not _is_uint(lag_tok):
            raise ParseError("lag must be an integer literal", lag_tok.span)
        self.advance()
        lag = int(lag_tok.text)
        if lag < 1:
            raise ParseError(f"lag must be at least 1, got {lag}", lag_tok.span)
        self.expect("RBRACK", "']'")
        flat = (lag - 1) * len(self.index_of) + self.index_of[name_tok.text]
        return Poly.variable(self.width, flat)


def parse_system(text: str, mode: Mode) -> Tuple[PolySystem, List[str]]:
    """Parse DSL text into a PolySystem over the flattened lag variables,
    returning the declared names as well. Variable (name index l, lag j)
    becomes flattened index (j-1)*k + l. A Float system is the exact parse
    with each coefficient rounded once, carrying it as its exact twin. One
    too large for a double raises a ParseError at its literal or equation."""
    parser = _Parser(_tokenize(text), mode)
    system, names = parser.parse_system()
    if mode is Mode.EXACT:
        return system, names
    polys = []
    for name, poly in zip(names, system.polys):
        try:
            polys.append(Poly(poly.var_count, {m: mode.from_fraction(c)
                                               for m, c in poly.terms.items()}))
        except CarlemanError as exc:
            raise ParseError(str(exc), parser.spans[name]) from exc
    return replace(system, polys=tuple(polys), mode=mode, exact=system), names


# -- rendering ----------------------------------------------------------------


def _render_poly(p: Poly, factor_names: Sequence[str]) -> str:
    if p.is_zero():
        return "0"
    ordered = sorted(p.terms.items(),
                     key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))
    pieces: List[str] = []
    for position, (mono, coeff) in enumerate(ordered):
        factors = render_monomial(mono, factor_names)
        sign, mag = split_sign(coeff)
        magnitude = format_scalar(mag)
        if factors and magnitude == "1":
            body = factors
        elif factors:
            body = f"{magnitude}*{factors}"
        else:
            body = magnitude
        if position == 0:
            if sign == "+":
                pieces.append(body)
            elif factors and magnitude == "1":
                # a sign may only prefix a number literal, so spell out the 1
                pieces.append(f"-1*{factors}")
            else:
                pieces.append(f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


def pretty_print(system: PolySystem, names: Optional[Sequence[str]] = None) -> str:
    """Render a system to canonical DSL text (round-trips through
    parse_system for exact and real-decimal coefficients)."""
    k = system.k
    if names is None:
        names = ["u"] if k == 1 else [f"u{l + 1}" for l in range(k)]
    if len(names) != k:
        raise CarlemanError(f"expected {k} names, got {len(names)}")
    # flattened variable flat is names[flat % k] at lag flat // k + 1
    factors = [f"{names[flat % k]}[i-{flat // k + 1}]"
               for flat in range(k * system.depth)]
    lines = ["vars: " + ", ".join(names)]
    for l in range(k):
        lines.append(f"{names[l]}[i] = " + _render_poly(system.polys[l], factors))
    return "\n".join(lines) + "\n"
