"""Seeded properties of the shared sparse base, scalar.LinearCombination.

ParamScalar, LaurentElement, OneForm, GluingForm, FreeFieldElement and
WeightOneElement inherit their sum, difference, negation, scaling, equality,
hashing and truth value from it.  Every test runs on random elements of every
type, so a type that drifts from the canonical form (no zero value stored)
fails here.
"""

import random
from fractions import Fraction

import pytest

from vertexalg import cli
from vertexalg.algebroid import WeightOneElement, embed
from vertexalg.errors import (
    ChartMismatch,
    InhomogeneousInput,
    InvalidInput,
    VariableMismatch,
)
from vertexalg.freefield import FreeFieldAlgebra
from vertexalg.geometry import GluingForm
from vertexalg.laurent import LaurentElement, OneForm, de_rham
from vertexalg.scalar import LinearCombination, ParamScalar, exact

V = ("y1", "y2")
OTHER = ("y1", "z")  # same length, different variable list
ALGEBRAS = {V: FreeFieldAlgebra(V, 3), OTHER: FreeFieldAlgebra(OTHER, 3)}
MONOMIALS = [(), (("k", 1),), (("c", 1),), (("c", 1), ("k", 2))]
# basis words of conformal weight 1
WORDS = [((1, 0), (("d", 1, 0),)), ((0, -1), (("d", 2, 0),)),
         ((2, 1), (("y", 1, 1),)), ((0, 0), (("y", 2, 1),))]
SEEDS = range(40)


def _scalar(rng):
    return ParamScalar({m: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for m in rng.sample(MONOMIALS, rng.randint(0, 3))})


def _param_scalar(rng):
    """A random scalar that holds a parameter, so it is a ParamScalar."""
    while not isinstance(x := _scalar(rng), ParamScalar):
        pass
    return x


def _terms(x) -> dict:
    """x's terms; a number is a scalar whose one term is its constant."""
    if isinstance(x, LinearCombination):
        return x.terms
    return {(): x} if x else {}


def _laurent(rng, variables):
    return LaurentElement(variables, {(rng.randint(-2, 2), rng.randint(-2, 2)): _scalar(rng)
                                      for _ in range(rng.randint(0, 3))})


def _components(rng, keys, variables):
    return {k: _laurent(rng, variables) for k in rng.sample(keys, rng.randint(0, len(keys)))}


# type -> (random element over a variable list, public constructor from terms)
KINDS = {
    "ParamScalar": (lambda rng, vs: _param_scalar(rng),
                    lambda a: ParamScalar(_terms(a))),
    "LaurentElement": (_laurent,
                       lambda a: LaurentElement(a.variables, a.terms)),
    "OneForm": (lambda rng, vs: OneForm(vs, _components(rng, [1, 2], vs)),
                lambda a: OneForm(a.variables, a.terms)),
    "GluingForm": (lambda rng, vs: GluingForm({(rng.randint(1, 3), rng.randint(1, 3)): _scalar(rng)
                                               for _ in range(rng.randint(0, 3))}),
                   lambda a: GluingForm(a.terms)),
    "FreeFieldElement": (lambda rng, vs: ALGEBRAS[vs].element(
                             {w: _scalar(rng) for w in rng.sample(WORDS, rng.randint(0, 3))}),
                         lambda a: a.algebra.element(a.terms)),
    "WeightOneElement": (lambda rng, vs: WeightOneElement(
                             "U1", vs, _components(rng, [1, 2], vs),
                             OneForm(vs, _components(rng, [1, 2], vs))),
                         lambda a: WeightOneElement(a.chart, a.variables, a.field_part,
                                                    a.form_part)),
}


def _draws(kind, seed, count=3, variables=V):
    rng = random.Random(seed)
    make = KINDS[kind][0]
    return [make(rng, variables) for _ in range(count)]


def _canonical(x) -> bool:
    """No zero value stored; a scalar is a number or holds a parameter."""
    if isinstance(x, ParamScalar):
        return any(x.terms) and all(x.terms.values())
    if not isinstance(x, LinearCombination):
        return type(x) in (int, Fraction)
    return all(x.terms.values())


@pytest.mark.parametrize("kind", KINDS)
def test_cancellation_stores_no_term(kind):
    for seed in SEEDS:
        a, b, _ = _draws(kind, seed)
        for zero in (a - a, -a + a, a.scale(0), (a + b) - (b + a)):
            if kind == "ParamScalar":  # a scalar with no term is the int 0
                assert zero == 0 and type(zero) is int
            else:
                assert zero.terms == {} and zero.is_zero() and not zero
        for x in (a + b, a - b, -a, a.scale(2), a.scale(Fraction(-1, 3))):
            assert _canonical(x)
            assert bool(x) == bool(_terms(x))


@pytest.mark.parametrize("kind", KINDS)
def test_sum_is_commutative_and_associative(kind):
    for seed in SEEDS:
        a, b, c = _draws(kind, seed)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert (a + b) - b == a
        assert -(-a) == a
        assert a.scale(2) == a + a


@pytest.mark.parametrize("kind", KINDS)
def test_equal_objects_have_equal_hashes(kind):
    rebuild = KINDS[kind][1]
    for seed in SEEDS:
        a, b, c = _draws(kind, seed)
        pairs = [(a + b, b + a), ((a + b) + c, a + (b + c)), (rebuild(a), a),
                 ((a - b) + b, rebuild(a))]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
        assert len({a + b, b + a, rebuild(a + b)}) == 1


def test_scalar_compares_with_rationals():
    # a constant is the plain number, so it compares and computes as one
    three = ParamScalar({(): 3})
    assert three == 3 and 3 == three and type(three) is int
    assert ParamScalar({}) == 0 and type(ParamScalar({})) is int
    assert ParamScalar({(): Fraction(1, 2)}) == Fraction(1, 2)
    k = ParamScalar.var("k")
    assert k != 0 and 0 != k and k != Fraction(1, 2) and k + 1 != 1
    assert (k + 3) - k == 3 and 1 - (k + 3) + k == -2 and 2 * (k + 3) - 2 * k == 6
    assert type((k + 3) - k) is int
    assert hash(three) == hash(ParamScalar({(): Fraction(3)}))


def test_constant_scalars_hash_as_their_rationals():
    k = ParamScalar.var("k")
    assert {3: "x"}.get(ParamScalar({(): 3})) == "x"
    assert {Fraction(-2, 3): "y"}.get(k - k + Fraction(-2, 3)) == "y"
    pairs = [(ParamScalar({(): 3}), 3), ((k + Fraction(1, 2)) - k, Fraction(1, 2)),
             (ParamScalar({}), 0), (k + k - k, k),
             (1 + k, ParamScalar({(): 1, (("k", 1),): 1}))]
    for seed in SEEDS:
        x = _scalar(random.Random(seed))
        pairs.append((x, ParamScalar(_terms(x))))
        pairs.append((x + k - k, x))
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)


# public constructor -> (element with one coefficient c, the value it stores)
COEFFICIENT_SLOTS = {
    "ParamScalar": (lambda c: ParamScalar({(("k", 1),): c}), lambda x: x.terms.get((("k", 1),))),
    "LaurentElement": (lambda c: LaurentElement.monomial(V, (1, 0), c),
                       lambda x: x.terms.get((1, 0))),
    "GluingForm": (lambda c: GluingForm({(1, 1): c}), lambda x: x.terms.get((1, 1))),
    "FreeFieldElement": (lambda c: ALGEBRAS[V].element({WORDS[0]: c}),
                         lambda x: x.terms.get(WORDS[0])),
}


@pytest.mark.parametrize("kind", COEFFICIENT_SLOTS)
def test_constructors_accept_exact_scalars_only(kind):
    build, stored = COEFFICIENT_SLOTS[kind]
    half = build(Fraction(1, 2))
    assert stored(half) == Fraction(1, 2) and type(stored(half)) is Fraction
    k = ParamScalar.var("k")
    same = [build(2), build(Fraction(2))]
    assert all(type(stored(x)) is int for x in same)
    if kind != "ParamScalar":
        same.append(build(k - k + 2))
        assert build(k - k + Fraction(1, 2)) == half
        assert stored(build(k)) == k
    assert len({hash(x) for x in same}) == 1 and same[0] == same[1] == same[-1]
    for bad in (0.5, 0.1, "1/2", None):
        with pytest.raises(InvalidInput):
            build(bad)
        with pytest.raises(InvalidInput):
            build(exact(bad))


def test_public_constructors_drop_zeros_and_coerce_ints():
    k = (("k", 1),)
    # an integral value is stored as int, any other as Fraction
    s = ParamScalar({(): 0, k: Fraction(4, 2), (("c", 1),): Fraction(1, 2)})
    assert s.terms == {k: 2, (("c", 1),): Fraction(1, 2)}
    assert type(s.terms[k]) is int and type(s.terms[(("c", 1),)]) is Fraction
    assert type(exact(3)) is int and type(exact(Fraction(6, 2))) is int
    assert type(exact(True)) is int and type(exact(Fraction(1, 2))) is Fraction
    f = LaurentElement(V, {(1, 0): 0, (0, 1): 2})
    assert f.terms == {(0, 1): 2} and type(f.terms[(0, 1)]) is int
    zero = LaurentElement(V)
    assert OneForm(V, {1: zero}).terms == {}
    assert OneForm(V, {1: f}).terms == {1: f}
    g = GluingForm({(1, 1): 0, (1, 2): 3})
    assert g.terms == {(1, 2): 3} and type(g.terms[(1, 2)]) is int
    alg = ALGEBRAS[V]
    x = alg.element({WORDS[0]: 0, WORDS[3]: 2})
    assert x.terms == {WORDS[3]: 2} and type(x.terms[WORDS[3]]) is int
    # keys are normalized, so words differing only in symbol order cancel
    tail = (("d", 1, 0), ("y", 2, 1))
    assert alg.element({((0, 0), tail): 1, ((0, 0), tail[::-1]): -1}).terms == {}
    # the other checks of the public constructors still hold
    with pytest.raises(InvalidInput):
        GluingForm({(0, 1): 1})
    with pytest.raises(VariableMismatch):
        LaurentElement(V, {(1,): 1})
    with pytest.raises(VariableMismatch):
        OneForm(V, {1: LaurentElement.monomial(OTHER, (1, 0))})
    with pytest.raises(InhomogeneousInput):
        alg.element({WORDS[0]: 1, ((1, 0), ()): 1})


# a scalar lives over no coordinates and a gluing form on the plane only
@pytest.mark.parametrize("kind", [k for k in KINDS if k not in ("ParamScalar", "GluingForm")])
def test_mismatched_operands_raise(kind):
    for seed in SEEDS:
        (a,) = _draws(kind, seed, 1)
        (b,) = _draws(kind, seed + 1000, 1, OTHER)
        with pytest.raises(VariableMismatch):
            a + b
        with pytest.raises(VariableMismatch):
            a - b
        assert a != b


def _fresh_context(kind, a):
    """A second element of a's kind whose context equals a's but is a
    different object, so a result shows whose context it kept."""
    if kind == "FreeFieldElement":
        return FreeFieldAlgebra(tuple(a.variables), 3).element(a.terms)
    if kind == "WeightOneElement":
        return WeightOneElement("".join(a.chart), tuple(list(a.variables)),
                                a.field_part, a.form_part)
    if kind in ("ParamScalar", "GluingForm"):
        return KINDS[kind][1](a)
    return type(a)(tuple(list(a.variables)), a.terms)


@pytest.mark.parametrize("kind", KINDS)
def test_results_keep_the_left_context_and_no_partials(kind):
    for seed in SEEDS:
        a, b, _ = _draws(kind, seed)
        b = _fresh_context(kind, b)
        context = type(a).__slots__
        assert not any(getattr(b, name) is getattr(a, name) for name in context)
        a._partials = {1: a}  # derived data of a, never of a result
        hash(a)
        results = [a + b, a - b, -a, a.scale(2), a.scale(Fraction(-1, 3)), a - a]
        if kind in ("ParamScalar", "LaurentElement"):
            results.append(a * b)
        for x in results:
            if kind == "ParamScalar" and type(x) is not ParamScalar:
                assert type(x) in (int, Fraction)  # a number has no context
                continue
            assert type(x) is type(a)
            assert all(getattr(x, name) is getattr(a, name) for name in context)
            assert not hasattr(x, "_partials") and x._hash is None
            assert _canonical(x)
        assert a - b == a + (-b) and hash(a - b) == hash(a + (-b))


# kind -> (element, an operand it may not be added to, the error either way)
MISMATCHES = {
    "LaurentElement": lambda: (LaurentElement.coordinate(V, 1),
                               LaurentElement.coordinate(OTHER, 1), VariableMismatch),
    "WeightOneElement": lambda: (
        WeightOneElement.field("U1", V, 1, LaurentElement.coordinate(V, 1)),
        WeightOneElement.field("U2", V, 1, LaurentElement.coordinate(V, 1)),
        ChartMismatch),
    "FreeFieldElement": lambda: (ALGEBRAS[V].coordinate(1), ALGEBRAS[V].frame(1),
                                 InhomogeneousInput),
}


@pytest.mark.parametrize("kind", MISMATCHES)
def test_difference_raises_as_the_sum_does(kind):
    a, b, error = MISMATCHES[kind]()
    for x, y in ((a, b), (b, a)):
        with pytest.raises(error):
            x + y
        with pytest.raises(error):
            x - y


def test_fock_sum_of_different_weights_raises():
    alg = ALGEBRAS[V]
    weight0, weight1 = alg.coordinate(1), alg.frame(1)
    with pytest.raises(InhomogeneousInput):
        weight0 + weight1
    with pytest.raises(InhomogeneousInput):
        weight1 - weight0
    assert alg.zero() + weight1 == weight1 == weight1 + alg.zero()
    assert cli.main(["nprod", "y1 + d1"]) == 2


def _same_element(x, y, same_types=False) -> bool:
    """Equal, with equal hashes, and canonical; with same_types, every
    coefficient is also stored as the same type.  Arithmetic may leave an
    integral Fraction (derive, a sum of halves), which the public
    constructor stores as the int it equals."""
    return (x == y and hash(x) == hash(y) and _canonical(x)
            and (not same_types
                 or all(type(c) is type(y.terms[key]) for key, c in x.terms.items())))


def _embedded_by_words(v, alg):
    """embed(v) from public constructors: the raw words of v's components
    minus the words of the exact part d(sum_i d f_i/dy_i)."""
    order = {"d": 0, "y": 1}
    raw = alg.element({(alpha, ((cls, i, order[cls]),)): c
                       for (cls, i), f in v.terms.items() for alpha, c in f.terms.items()})
    div = LaurentElement(v.variables)
    for i, f in v.field_part.items():
        div = div + f.derive(i)
    exact_part = alg.element({(alpha, (("y", j, 1),)): c
                              for j, g in de_rham(div).terms.items()
                              for alpha, c in g.terms.items()})
    return raw - exact_part


def test_fock_builders_store_what_the_public_constructors_store():
    # from_laurent, to_laurent and embed build from canonical terms by `_new`:
    # each result must equal, hash and store like the public constructor's
    # element on the same terms; the draws hold ParamScalar coefficients and
    # negative exponents
    alg = ALGEBRAS[V]
    k = ParamScalar.var("k")
    y1 = LaurentElement.coordinate(V, 1)
    cancelling = [
        # y1^2 D1 + c dy1: the exact part d(2c y1) = 2c dy1 cancels the form
        WeightOneElement.field("U1", V, 1, (y1 ** 2).scale(c))
        + WeightOneElement.form("U1", OneForm(V, {1: LaurentElement.constant(V, 2 * c)}))
        for c in (1, Fraction(-1, 3), k, k + Fraction(1, 2))]
    for v in cancelling:
        y = embed(v, alg)
        assert ((0, 0), (("y", 1, 1),)) not in y.terms and y
        assert _same_element(y, alg.element(y.terms)) and y == _embedded_by_words(v, alg)
    for seed in SEEDS:
        for f, g in zip(_draws("LaurentElement", seed), _draws("LaurentElement", seed + 500)):
            # f comes from the public constructor, so its values keep their types
            x = alg.from_laurent(f)
            assert _same_element(x, alg.element({(exp, ()): c for exp, c in f.terms.items()}),
                                 same_types=True)
            assert _same_element(alg.to_laurent(x), f, same_types=True)
            for z, h in ((x - alg.from_laurent(g), f - g), (x - x, f - f)):
                back = alg.to_laurent(z)
                assert _same_element(back, LaurentElement(V, {alpha: c for (alpha, _), c
                                                              in z.terms.items()}))
                assert _same_element(back, h)
        for v in _draws("WeightOneElement", seed):
            y = embed(v, alg)
            assert _same_element(y, alg.element(y.terms)) and y == _embedded_by_words(v, alg)


def test_fock_builders_keep_their_variable_list_checks():
    alg = ALGEBRAS[V]
    with pytest.raises(VariableMismatch):
        alg.from_laurent(LaurentElement.coordinate(OTHER, 1))
    with pytest.raises(VariableMismatch):
        alg.to_laurent(ALGEBRAS[OTHER].coordinate(1))
    with pytest.raises(VariableMismatch):
        embed(WeightOneElement.field("U1", OTHER, 1, LaurentElement.coordinate(OTHER, 1)), alg)
