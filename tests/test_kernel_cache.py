"""The product table of a FreeFieldAlgebra against uncached computations.

With no rng, `_word_mode` reads and fills the algebra's table of
unit-coefficient results; a fresh algebra (empty table) and a random peel
order (table bypassed) compute the same product independently.  The table's
coefficients are plain ints, built from exact integer binomials and
multinomials, which are checked here against their Fraction forms.  A
nonnegative mode with nothing to contract is stored empty without recursion;
the random peel checks that rule.
"""

import gc
import math
import random
import weakref
from fractions import Fraction

import pytest

from vertexalg import algebroid
from vertexalg.algebroid import fock_algebra
from vertexalg.freefield import (
    FreeFieldAlgebra,
    _binom,
    _multinomial,
    _partitions,
    nproduct,
    random_element,
)
from vertexalg.laurent import LaurentElement
from vertexalg.scalar import ParamScalar, substitute

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


@pytest.mark.parametrize("n, seed", [(1, 90), (2, 91), (3, 92)])
def test_table_matches_random_peel_on_coordinate_powers(n, seed):
    # y^e with exponents -3..5 applied to random elements: the table follows
    # one fixed peel plan per word, the rng a random peel order
    bound = 3
    rng = random.Random(seed)
    alg = FreeFieldAlgebra(variables(n), bound)
    for _ in range(30):
        power = [rng.randint(-3, 5) for _ in range(n)]
        a = alg.from_laurent(LaurentElement.monomial(variables(n), power))
        b = random_element(alg, rng, bound)
        m = rng.randint(b.weight - 1 - bound, b.weight - 1)  # result weight 0..bound
        peel = random.Random(rng.randint(0, 10 ** 6))
        assert nproduct(a, m, b) == nproduct(a, m, b, rng=peel), (power, m)


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
            raw[((0, 0), ())] = 1
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


def at(x, value):
    """x with the value put for the parameter k in every coefficient."""
    return x.algebra.element({key: substitute(c, {"k": value})
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
            assert at(table, value) == expected
            assert at(peeled, value) == expected


def random_word(alg, rng):
    """A basis word: exponents -2..3 and up to two translated symbols of
    either class, as the canonical key of the element it spans."""
    n = alg.n
    alpha = tuple(rng.randint(-2, 3) for _ in range(n))
    tail = []
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            tail.append(("y", rng.randint(1, n), rng.randint(1, 2)))
        else:
            tail.append(("d", rng.randint(1, n), rng.randint(0, 1)))
    (key,) = alg.element({(alpha, tuple(tail)): 1}).terms
    return key


def coordinates_and_frames(key):
    """The variables whose coordinate (a nonzero exponent or a y symbol) and
    whose frame field (a d symbol) occur in a basis word."""
    alpha, tail = key
    coords = {i for i, e in enumerate(alpha, 1) if e} | {i for c, i, _ in tail if c == "y"}
    return coords, {i for c, i, _ in tail if c == "d"}


@pytest.mark.parametrize("n, seed", [(1, 80), (2, 81), (3, 82)])
def test_nonnegative_modes_with_nothing_to_contract_vanish(n, seed):
    rng = random.Random(seed)
    alg = FreeFieldAlgebra(variables(n), MAX_WEIGHT)
    checked = 0
    while checked < 40:
        word, state, m = random_word(alg, rng), random_word(alg, rng), rng.randint(0, 3)
        word_coords, word_frames = coordinates_and_frames(word)
        state_coords, state_frames = coordinates_and_frames(state)
        if word_coords & state_frames or word_frames & state_coords:
            continue
        checked += 1
        peel = random.Random(rng.randint(0, 10 ** 6))
        assert alg._word_mode(*word, m, {state: 1}, peel) == {}
        a, b = alg.element({word: 2}), alg.element({state: ParamScalar.var("k")})
        assert nproduct(a, m, b).is_zero()
        assert nproduct(a, m, b, rng=peel).is_zero()


def validation_algebras(monkeypatch, keep):
    """Make `_validate_rules` run afresh; keep(alg) of each algebra it makes
    is listed in the returned list."""
    made = []

    def make(*args):
        alg = FreeFieldAlgebra(*args)
        made.append(keep(alg))
        return alg

    monkeypatch.setattr(algebroid, "FreeFieldAlgebra", make)
    monkeypatch.setattr(algebroid, "_validated", set())
    return made


def test_validation_stores_contraction_free_entries_without_recursion(monkeypatch):
    expanded = set()
    real_expand = FreeFieldAlgebra._expand

    def expand(self, alpha, tail, n, terms, wt_b, rng):
        expanded.update((alpha, tail, n, key) for key in terms)
        return real_expand(self, alpha, tail, n, terms, wt_b, rng)

    monkeypatch.setattr(FreeFieldAlgebra, "_expand", expand)
    made = validation_algebras(monkeypatch, lambda alg: alg)
    algebroid._validate_rules(variables(2))
    (alg,) = made
    skipped = {entry: unit for entry, unit in alg._products.items() if entry not in expanded}
    assert skipped
    assert all(unit == () and entry[2] >= 0 for entry, unit in skipped.items())


def test_validation_algebra_is_freed_on_return(monkeypatch):
    # with the cyclic collector off, only a reference cycle (say, a cached
    # closure over the algebra) could keep the algebra and its table alive
    refs = validation_algebras(monkeypatch, weakref.ref)
    enabled = gc.isenabled()
    gc.disable()
    try:
        algebroid._validate_rules(variables(2))
    finally:
        if enabled:
            gc.enable()
    assert len(refs) == 1 and refs[0]() is None
