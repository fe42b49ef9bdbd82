import random
from fractions import Fraction

import pytest
import sympy

from classical import apply_field, bracket, lie_derivative
from vertexalg.algebroid import WeightOneElement, oracle_vprod
from vertexalg.errors import InhomogeneousInput, InvalidInput, VariableMismatch
from vertexalg.laurent import (
    LaurentElement,
    OneForm,
    de_rham,
    degrees,
    homogeneous_degree,
)
from vertexalg.scalar import ParamScalar, accumulate, exact

V = ("y1", "y2")
V3 = ("y1", "y2", "y3")


def mono(e1, e2, c=1):
    return LaurentElement.monomial(V, (e1, e2), c)


def random_laurent(rng, nterms=3, lo=-2, hi=3, variables=V):
    out = LaurentElement(variables)
    for _ in range(rng.randint(1, nterms)):
        exps = [rng.randint(lo, hi) for _ in variables]
        out = out + LaurentElement.monomial(variables, exps, rng.randint(-4, 4))
    return out


def random_field(rng, variables=V):
    i = rng.randint(1, len(variables))
    return {i: random_laurent(rng, variables=variables)}


def test_mul_inverse():
    assert mono(1, 0) * mono(-1, 0) == LaurentElement.constant(V, 1)


def test_derive():
    f = mono(2, 1)
    assert f.derive(1) == mono(1, 1, 2)
    assert mono(-1, 0).derive(1) == mono(-2, 0, -1)


def random_parametric(rng, variables=V3):
    """A seeded Laurent polynomial whose coefficients involve k and c."""
    k, c = ParamScalar.var("k"), ParamScalar.var("c")
    out = LaurentElement(variables)
    for _ in range(rng.randint(1, 4)):
        coeff = (exact(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                 + k * rng.randint(-2, 2) + k * c * rng.randint(-1, 1))
        exps = [rng.randint(-2, 3) for _ in variables]
        out = out + LaurentElement.monomial(variables, exps, coeff)
    return out


def to_sympy(f: LaurentElement):
    """f as a sympy expression; coordinates and parameters become symbols."""
    def power_product(pairs):
        return sympy.Mul(*(sympy.Symbol(name) ** e for name, e in pairs))

    def terms(c):
        return c.terms if isinstance(c, ParamScalar) else {(): c}

    return sympy.Add(*(sympy.Rational(x) * power_product(params)
                       * power_product(zip(f.variables, exp))
                       for exp, c in f.terms.items() for params, x in terms(c).items()))


def is_partial(d: LaurentElement, f: LaurentElement, i: int) -> bool:
    """d is the partial derivative of f along y_i, by sympy."""
    y = sympy.Symbol(f.variables[i - 1])
    return to_sympy(d) - sympy.diff(to_sympy(f), y) == 0


def test_kept_partials_match_sympy_random():
    rng = random.Random(1302)
    for _ in range(15):
        f = random_parametric(rng)
        for i in range(1, len(V3) + 1):
            d = f.derive(i)
            assert f.derive(i) is d
            assert is_partial(d, f, i)
            assert is_partial(d.derive(i), d, i)


def test_kept_partials_never_leak():
    # results built from an element with kept partials start without them,
    # so each agrees with the partial of a fresh copy built from its terms
    # (itself checked against sympy above); a kept partial changes neither
    # equality nor hash
    rng = random.Random(1303)
    for _ in range(40):
        f, g = random_parametric(rng), random_parametric(rng)
        fresh = LaurentElement(V3, f.terms)
        f.derive(1)
        for h in (f + g, f.scale(2), -f, f - g, f * g):
            assert h.derive(1) == LaurentElement(V3, h.terms).derive(1)
        assert f == fresh and fresh == f
        assert hash(f) == hash(fresh)
        assert {f: 1}[fresh] == 1
        assert f.terms == fresh.terms


def test_one_term_powers_take_one_step():
    k = ParamScalar.var("k")
    for base in (LaurentElement(V), mono(1, -2), mono(0, 0, -3), mono(2, 1, k),
                 mono(-1, 3, Fraction(2, 3)), mono(1, 0) + mono(0, 1, k)):
        out = LaurentElement.constant(V, 1)
        for n in range(6):
            assert base ** n == out, (base, n)
            out = out * base
    # a huge power of a unit monomial returns at once
    huge = 10 ** 20
    assert mono(1, -2, -k) ** huge == LaurentElement.monomial(
        V, (huge, -2 * huge), ParamScalar({(("k", huge),): 1}))
    assert mono(1, 0) ** -huge == mono(-huge, 0)
    assert LaurentElement(V) ** huge == LaurentElement(V)
    for base in (LaurentElement(V), mono(1, 0) + mono(0, 1)):
        with pytest.raises(InvalidInput):
            _ = base ** -1


def test_variable_mismatch():
    with pytest.raises(VariableMismatch):
        mono(1, 0) + LaurentElement.monomial(("z",), (1,))


def test_de_rham():
    f = mono(1, 1)
    d = de_rham(f)
    assert d.terms.get(1) == mono(0, 1)
    assert d.terms.get(2) == mono(1, 0)


def test_de_rham_power():
    N = 4
    d = de_rham(mono(N, 0))
    assert d.terms.get(1) == mono(N - 1, 0, N)
    assert d.terms.get(2) is None


def test_de_rham_veronese_generator():
    N, j = 3, 1
    d = de_rham(mono(N - j, j))
    assert d.terms.get(1) == mono(N - j - 1, j, N - j)
    assert d.terms.get(2) == mono(N - j, j - 1, j)


def test_gl2_bracket():
    e12 = {2: mono(1, 0)}  # y1 d/dy2
    e21 = {1: mono(0, 1)}  # y2 d/dy1
    assert bracket(e12, e21) == {1: mono(1, 0), 2: mono(0, 1, -1)}


def test_grading_agrees_on_every_kind():
    def section(fields, forms):
        return WeightOneElement("U1", V, fields, OneForm(V, forms))

    # (homogeneous element, its degree, a mixed element, its degrees)
    cases = [
        (mono(2, 1), 3, mono(2, 1) + mono(0, 1), {1, 3}),
        (OneForm(V, {1: mono(1, 0)}), 2, OneForm(V, {1: mono(1, 0), 2: mono(0, 0)}), {1, 2}),
        (section({1: mono(0, 2)}, {2: mono(0, 0)}), 1,
         section({1: mono(0, 1) + mono(0, 0)}, {}), {-1, 0}),
    ]
    for homogeneous, d, mixed, degs in cases:
        assert degrees(homogeneous) == {d} and homogeneous_degree(homogeneous) == d
        assert degrees(mixed) == degs
        with pytest.raises(InhomogeneousInput, match="mixed internal degrees"):
            homogeneous_degree(mixed)
        zero = homogeneous - homogeneous
        assert degrees(zero) == set() and homogeneous_degree(zero) is None


def test_bracket_jacobi_random():
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = random_field(rng), random_field(rng), random_field(rng)
        jac = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for j, f in bracket(x, bracket(y, z)).items():
                accumulate(jac, j, f)
        assert jac == {}


def test_lie_derivative_matches_oracle_random():
    # the Fock _(0) product of a frame section with a form section has no
    # field part, and its form part is the Lie derivative of the form
    rng = random.Random(6)
    for variables in (V, V3):
        n = len(variables)
        for _ in range(40):
            tau = {i: random_laurent(rng, 2, -1, 2, variables)
                   for i in rng.sample(range(1, n + 1), rng.randint(1, n))}
            omega = OneForm(variables, {j: random_laurent(rng, 2, -1, 2, variables)
                                        for j in rng.sample(range(1, n + 1), rng.randint(1, n))})
            product = oracle_vprod(WeightOneElement("c", variables, tau), 0,
                                   WeightOneElement.form("c", omega))
            assert product.field_part == {}
            assert product.form_part == lie_derivative(tau, omega)


def test_lie_derivative_commutes_with_d_random():
    rng = random.Random(7)
    for variables in (V, V3):
        for _ in range(100):
            tau, f = random_field(rng, variables), random_laurent(rng, variables=variables)
            assert lie_derivative(tau, de_rham(f)) == de_rham(apply_field(tau, f))
