import pickle
from fractions import Fraction

import pytest

from vertexalg import expr
from vertexalg.expr import (
    Gluing,
    Ident,
    Neg,
    NProd,
    Num,
    ParseError,
    Power,
    Product,
    Sum,
    Translate,
    identifiers,
    parse_expr,
)


def test_monomial():
    tree = parse_expr("y1^2*y2^-1")
    assert tree == Product((Power(Ident("y1"), 2), Power(Ident("y2"), -1)))


def test_section_expression():
    tree = parse_expr("y2*d1 - k*T(y2)*y1^-1")
    assert tree == Sum((
        Product((Ident("y2"), Ident("d1"))),
        Neg(Product((Ident("k"), Translate(Ident("y2")), Power(Ident("y1"), -1)))),
    ))


def test_nprod_node():
    tree = parse_expr("y1 .(0) d1")
    assert tree == NProd((Ident("y1"), Ident("d1")), (0,))
    tree = parse_expr("y1 .(-1) d1 .(1) d2")
    assert tree == NProd((Ident("y1"), Ident("d1"), Ident("d2")), (-1, 1))


def test_gluing_and_rational():
    assert parse_expr("w[1,2]") == Gluing(1, 2)
    assert parse_expr("3/2") == Num(Fraction(3, 2))
    assert parse_expr("-w[1,1] + 2*w[2,1]") == Sum(
        (Neg(Gluing(1, 1)), Product((Num(Fraction(2)), Gluing(2, 1)))))


def test_whitespace_invariance():
    a = parse_expr("y2*d1-k*T(y2)*y1^-1")
    b = parse_expr("  y2 * d1 -  k * T( y2 ) * y1 ^ -1 ")
    assert a == b


def test_parenthesized():
    assert parse_expr("(y1 + y2)^2") == Power(Sum((Ident("y1"), Ident("y2"))), 2)


def test_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_expr("y1 *")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_expr("(y1 + y2")
    with pytest.raises(ParseError):
        parse_expr("y1 ^ y2")
    with pytest.raises(ParseError):
        parse_expr("w[1]")
    with pytest.raises(ParseError):
        parse_expr("y1 y2")


def test_bracket_nesting_limit():
    # '(' and 'T(' share one depth count; one level past the limit is an error
    limit = expr._MAX_NESTING
    for opening in ("(" * limit, "T(" * limit, "(T(" * (limit // 2)):
        text = opening + "y1" + ")" * len(opening.replace("T", ""))
        parse_expr(text)
        with pytest.raises(ParseError, match=f"nest deeper than {limit}"):
            parse_expr("(" + text + ")")


def test_nodes_are_frozen_hashable_and_type_strict():
    y1 = Ident("y1")
    # equal fields in different node classes do not make equal nodes
    assert Neg(y1) != Translate(y1)
    assert Neg(y1) == Neg(Ident("y1"))
    assert Sum((y1, y1)) != Product((y1, y1))
    assert Sum((y1, y1)) != Sum((y1, Neg(y1)))
    assert Gluing(1, 2) != (1, 2)
    with pytest.raises(AttributeError):
        y1.name = "y2"
    with pytest.raises(AttributeError):
        del y1.name
    assert y1.name == "y1"
    tree = parse_expr("y1^2*y2^-1 - 3/2")
    assert hash(tree) == hash(parse_expr(" y1 ^ 2 * y2 ^ -1 - 3/2"))
    assert len({Neg(y1), Neg(Ident("y1")), Translate(y1)}) == 2
    assert pickle.loads(pickle.dumps(tree)) == tree
    with pytest.raises(TypeError):
        Power(y1)
    assert identifiers(parse_expr("k*T(y1^2) .(0) w[1,1] - c")) == {"k", "y1", "c"}


def test_node_repr():
    assert repr(Num(Fraction(3, 2))) == "Num(value=Fraction(3, 2))"
    assert repr(parse_expr("y1^2*y2^-1 - 3/2")) == (
        "Sum(terms=(Product(factors=(Power(base=Ident(name='y1'), exponent=2), "
        "Power(base=Ident(name='y2'), exponent=-1))), Neg(arg=Num(value=Fraction(3, 2)))))")
    assert repr(parse_expr("T(k*y1) .(-1) w[1,2]")) == (
        "NProd(operands=(Translate(arg=Product(factors=(Ident(name='k'), Ident(name='y1')))), "
        "Gluing(a=1, b=2)), modes=(-1,))")


def test_long_chains_are_one_node():
    # a chain of any length is one Sum, Product or NProd node, so comparing and
    # hashing two parses does not recurse along the chain
    text = "+".join(["y1"] * 2000)
    a, b = parse_expr(text), parse_expr(" + ".join(["y1"] * 2000))
    c = parse_expr("  " + "+ ".join(["y1 "] * 2000))
    assert a == b == c == Sum((Ident("y1"),) * 2000)
    assert hash(a) == hash(b) == hash(c)
    assert parse_expr("y1 - y2 - 3") == Sum(
        (Ident("y1"), Neg(Ident("y2")), Neg(Num(Fraction(3)))))
    assert parse_expr("-y1") == Neg(Ident("y1"))
    assert parse_expr("*".join(["k"] * 1500)) == Product((Ident("k"),) * 1500)
    assert identifiers(parse_expr("*".join(["k"] * 1499 + ["y1 + c"]))) == {"k", "y1", "c"}
    chain = " .(-1) ".join(["k"] * 1499 + ["(y1 + c)"])
    a, b = parse_expr(chain), parse_expr(chain.replace(" ", ""))
    assert a == b == NProd((Ident("k"),) * 1499 + (Sum((Ident("y1"), Ident("c"))),),
                           (-1,) * 1499)
    assert hash(a) == hash(b)
    assert identifiers(a) == {"k", "y1", "c"}
