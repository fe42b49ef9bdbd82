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

A chain of '+' and '-' parses to one Sum of its terms, each subtracted term
(and a leading '-') wrapped in Neg, a chain of '*' to one Product of its
factors, and a chain of '.(n)' products to one NProd of its operands and
modes, read left to right; so a chain of any length is one node, and a
single term, factor or operand is itself.  Brackets '(' and 'T(' nest at
most 100 deep (`_MAX_NESTING`); deeper input is a ParseError, since the
parser recurses once per level.
"""

from __future__ import annotations

import re
from fractions import Fraction


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected: set[str]):
        super().__init__(f"{message} at column {position + 1}"
                         + (f" (expected one of {sorted(expected)})" if expected else ""))
        self.position = position
        self.expected = expected


class _Node:
    """A syntax-tree node: positional fields named by __slots__, immutable,
    hashable, and equal only to a node of the same class with equal fields."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} "
                            f"arguments, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.fields() == other.fields()

    def __hash__(self):
        return hash(self.fields())

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"

    def __reduce__(self):
        return type(self), self.fields()


class Num(_Node):
    __slots__ = ("value",)  # Fraction


class Ident(_Node):
    __slots__ = ("name",)


class Translate(_Node):
    __slots__ = ("arg",)


class Gluing(_Node):
    __slots__ = ("a", "b")  # ints


class Sum(_Node):
    __slots__ = ("terms",)  # a tuple of two or more nodes


class Product(_Node):
    __slots__ = ("factors",)  # a tuple of two or more nodes


class Neg(_Node):
    __slots__ = ("arg",)


class Power(_Node):
    __slots__ = ("base", "exponent")  # exponent: int


class NProd(_Node):
    __slots__ = ("operands", "modes")  # two or more nodes; one int mode fewer


Node = Num | Ident | Translate | Gluing | Sum | Product | Neg | Power | NProd

_MAX_NESTING = 100
_IDENT = r"[A-Za-z_]\w*"
_TOKEN = re.compile(rf"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<ident>{_IDENT})"
                    r"|(?P<dot>\.\()|(?P<sym>[-+*^()\[\],]))")


def identifiers(node: Node) -> set[str]:
    """Every identifier name occurring in the tree."""
    names, stack = set(), [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Ident):
            names.add(node.name)
        elif isinstance(node, tuple):
            stack.extend(node)
        elif isinstance(node, _Node):
            stack.extend(node.fields())
    return names


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
        self.nesting = 0

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
        terms = []
        sign = "+"
        if self.peek()[0] in ("+", "-"):
            sign = self.take(self.peek()[0])[0]
        while True:
            term = self.term()
            terms.append(Neg(term) if sign == "-" else term)
            if self.peek()[0] not in ("+", "-"):
                return terms[0] if len(terms) == 1 else Sum(tuple(terms))
            sign = self.take(self.peek()[0])[0]

    def term(self) -> Node:
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.take("*")
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self) -> Node:
        node = self.atom()
        if self.peek()[0] == "^":
            self.take("^")
            node = Power(node, self.signed_int())
        return node

    def atom(self) -> Node:
        operands, modes = [self.primary()], []
        while self.peek()[0] == ".(":
            self.take(".(")
            modes.append(self.signed_int())
            self.take(")")
            operands.append(self.primary())
        return NProd(tuple(operands), tuple(modes)) if modes else operands[0]

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
                return Translate(self.bracketed())
            if tok[1] == "w" and self.peek()[0] == "[":
                self.take("[")
                a = self.signed_int()
                self.take(",")
                b = self.signed_int()
                self.take("]")
                return Gluing(a, b)
            return Ident(tok[1])
        if tok[0] == "(":
            return self.bracketed()
        raise ParseError(f"unexpected {tok[1] or 'end of input'!r}", tok[2],
                         {"number", "identifier", "T(", "w[", "("})

    def bracketed(self) -> Node:
        """'(' expr ')', at most _MAX_NESTING levels deep."""
        tok = self.take("(")
        if self.nesting == _MAX_NESTING:
            raise ParseError(f"brackets nest deeper than {_MAX_NESTING}", tok[2], set())
        self.nesting += 1
        inner = self.expr()
        self.take(")")
        self.nesting -= 1
        return inner


def parse_expr(text: str) -> Node:
    """Parse an expression; whitespace-variant inputs yield identical trees."""
    return _Parser(text).parse()
