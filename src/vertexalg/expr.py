"""A small expression language for sections, fields, and gluing forms.

Grammar (precedence low to high):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := atom ('^' int)?
    atom    := primary ('.(' int ')' primary)*
    primary := rational | ident | 'T' '(' expr ')' | 'w' '[' int ',' int ']'
               | '(' expr ')'

Rationals are written p or p/q; identifiers cover coordinates (y1, y2, ...),
frame fields (d1, d2, ...), and free parameters (k, c, ...).  The parser is
whitespace-insensitive and reports errors with a position and the set of
tokens it expected there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected: set[str]):
        super().__init__(f"{message} at column {position + 1}"
                         + (f" (expected one of {sorted(expected)})" if expected else ""))
        self.position = position
        self.expected = expected


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Translate:
    arg: "Node"


@dataclass(frozen=True)
class Gluing:
    a: int
    b: int


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-", "*"
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class NProd:
    left: "Node"
    n: int
    right: "Node"


Node = Num | Ident | Translate | Gluing | BinOp | Neg | Power | NProd

_IDENT = r"[A-Za-z_]\w*"
_TOKEN = re.compile(rf"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<ident>{_IDENT})"
                    r"|(?P<dot>\.\()|(?P<sym>[-+*^()\[\],]))")


def identifiers(node: Node) -> set[str]:
    """Every identifier name occurring in the tree."""
    if isinstance(node, Ident):
        return {node.name}
    return set().union(*(identifiers(child) for child in vars(node).values()
                         if isinstance(child, Node)))


def is_identifier(text: str) -> bool:
    """Whether text reads as one identifier of the expression language."""
    return re.fullmatch(_IDENT, text) is not None


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unrecognized character {text[pos]!r}", pos, set())
        if m.group("num"):
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident"):
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        elif m.group("dot"):
            tokens.append((".(", ".(", m.start("dot")))
        elif m.group("sym"):
            tokens.append((m.group("sym"), m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind: str):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[1]!r}", tok[2], {kind})
        self.i += 1
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2],
                             {"+", "-", "*", "^", "end"})
        return node

    def expr(self) -> Node:
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.i += 1
            node = self.term()
            if tok[0] == "-":
                node = Neg(node)
        else:
            node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take(self.peek()[0])[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] == "*":
            self.take("*")
            node = BinOp("*", node, self.factor())
        return node

    def factor(self) -> Node:
        node = self.atom()
        if self.peek()[0] == "^":
            self.take("^")
            node = Power(node, self.signed_int())
        return node

    def atom(self) -> Node:
        node = self.primary()
        while self.peek()[0] == ".(":
            self.take(".(")
            n = self.signed_int()
            self.take(")")
            node = NProd(node, n, self.primary())
        return node

    def signed_int(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.take("-")
            sign = -1
        elif self.peek()[0] == "+":
            self.take("+")
        tok = self.take("num")
        if "/" in tok[1]:
            raise ParseError("expected an integer", tok[2], {"integer"})
        return sign * int(tok[1])

    def primary(self) -> Node:
        tok = self.peek()
        if tok[0] == "num":
            self.i += 1
            if "/" in tok[1]:
                p, q = tok[1].split("/")
                if int(q) == 0:
                    raise ParseError("zero denominator", tok[2], set())
                return Num(Fraction(int(p), int(q)))
            return Num(Fraction(int(tok[1])))
        if tok[0] == "ident":
            self.i += 1
            if tok[1] == "T" and self.peek()[0] == "(":
                self.take("(")
                inner = self.expr()
                self.take(")")
                return Translate(inner)
            if tok[1] == "w" and self.peek()[0] == "[":
                self.take("[")
                a = self.signed_int()
                self.take(",")
                b = self.signed_int()
                self.take("]")
                return Gluing(a, b)
            return Ident(tok[1])
        if tok[0] == "(":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return inner
        raise ParseError(f"unexpected {tok[1] or 'end of input'!r}", tok[2],
                         {"number", "identifier", "T(", "w[", "("})


def parse_expr(text: str) -> Node:
    """Parse an expression; whitespace-variant inputs yield identical trees."""
    return _Parser(text).parse()
