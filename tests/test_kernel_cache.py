"""The product table of a FreeFieldAlgebra against uncached computations.

With no rng, `_word_mode` reads and fills the algebra's table of
unit-coefficient results; a fresh algebra (empty table) and a random peel
order (table bypassed) compute the same product independently.  The table's
coefficients are plain ints, built from exact integer binomials and
multinomials, which are checked here against their Fraction forms.
"""

import math
import random
from fractions import Fraction

import pytest

from vertexalg.algebroid import fock_algebra
from vertexalg.freefield import (
    FreeFieldAlgebra,
    _binom,
    _multinomial,
    _partitions,
    nproduct,
    random_element,
)
from vertexalg.scalar import ParamScalar

# the largest result weight: two weight-3 factors under mode -2
MAX_WEIGHT = 7


def variables(n):
    return tuple(f"y{i}" for i in range(1, n + 1))


def random_pairs(alg, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        a = random_element(alg, rng, 3)
        b = random_element(alg, rng, 3)
        yield a, rng.randint(-2, 2), b, rng.randint(0, 10 ** 6)


@pytest.mark.parametrize("n, seed", [(2, 31), (3, 32)])
def test_table_matches_fresh_algebra_and_random_peel(n, seed):
    alg = fock_algebra(variables(n), MAX_WEIGHT)
    for a, m, b, peel_seed in random_pairs(alg, seed, 30):
        cold = nproduct(a, m, b)
        size = len(alg._products)
        warm = nproduct(a, m, b)
        assert len(alg._products) == size  # answered from the table alone
        fresh = FreeFieldAlgebra(variables(n), MAX_WEIGHT)
        direct = nproduct(fresh.element(a.terms), m, fresh.element(b.terms))
        peeled = nproduct(a, m, b, rng=random.Random(peel_seed))
        assert warm == cold == direct == peeled


@pytest.mark.parametrize("n", [2, 3])
def test_random_peel_leaves_table_untouched(n):
    alg = FreeFieldAlgebra(variables(n), MAX_WEIGHT)
    for a, m, b, peel_seed in random_pairs(alg, 40 + n, 6):
        size = len(alg._products)
        nproduct(a, m, b, rng=random.Random(peel_seed))
        assert len(alg._products) == size
        nproduct(a, m, b)
    assert alg._products
    before = dict(alg._products)
    for a, m, b, peel_seed in random_pairs(alg, 40 + n, 6):
        nproduct(a, m, b, rng=random.Random(peel_seed))
    assert alg._products == before


def test_mutating_a_result_leaves_the_table_intact():
    alg = FreeFieldAlgebra(variables(2), MAX_WEIGHT)
    for a, m, b, _ in random_pairs(alg, 50, 10):
        first = nproduct(a, m, b)
        first.terms.clear()
        for (alpha, tail) in a.terms:
            raw = alg._word_mode(alpha, tail, m, b.terms)
            for key in raw:
                raw[key] = raw[key] * 5
            raw[((0, 0), ())] = ParamScalar.of(1)
        assert nproduct(a, m, b) == first
        assert nproduct(a, m, b) == nproduct(a, m, b, rng=random.Random(m))


def test_table_holds_int_coefficients():
    alg = FreeFieldAlgebra(variables(2), MAX_WEIGHT)
    k = ParamScalar.var("k")
    for a, m, b, peel_seed in random_pairs(alg, 60, 10):
        got = nproduct(a.scale(k), m, b.scale(k + 1))
        assert got == nproduct(a, m, b).scale(k * (k + 1))
        assert got == nproduct(a.scale(k), m, b.scale(k + 1),
                               rng=random.Random(peel_seed))
    coeffs = [c for unit in alg._products.values() for _, c in unit]
    assert coeffs and all(type(c) is int for c in coeffs)


def test_binom_is_exact_for_negative_tops():
    for l in range(-10, 11):
        for m in range(8):
            expected = Fraction(math.prod(l - t for t in range(m)), math.factorial(m))
            got = _binom(l, m)
            assert type(got) is int and got == expected


def test_multinomial_matches_its_fraction_form():
    for total in range(1, 9):
        for parts in _partitions(total):
            expected = Fraction(math.factorial(len(parts)))
            for m in set(parts):
                expected /= math.factorial(parts.count(m))
            got = _multinomial(parts)
            assert type(got) is int and got == expected


def substitute(x, value):
    """x with the value put for the parameter k in every coefficient."""
    return x.algebra.element({key: c.substitute({"k": value})
                              for key, c in x.terms.items()})


@pytest.mark.parametrize("n, seed", [(2, 70), (3, 71)])
def test_parametric_products_agree_with_substitution(n, seed):
    alg = FreeFieldAlgebra(variables(n), MAX_WEIGHT)
    k = ParamScalar.var("k")
    for a, m, b, peel_seed in random_pairs(alg, seed, 12):
        ka, kb = a.scale(k), b.scale(k * k - 2)
        table = nproduct(ka, m, kb)
        peeled = nproduct(ka, m, kb, rng=random.Random(peel_seed))
        for value in (0, 1, 2, -3):
            expected = nproduct(a.scale(value), m, b.scale(value * value - 2))
            assert substitute(table, value) == expected
            assert substitute(peeled, value) == expected
