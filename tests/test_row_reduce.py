"""row_reduce re-checked against an independent oracle: sympy's exact
rref, rank, nullspace and linear solver, on seeded random sparse rational systems
and on the integer systems that row_reduce eliminates on ints."""

import copy
import random
from fractions import Fraction

import sympy

from vertexalg.scalar import RHS, ParamScalar, row_reduce

K = sympy.Symbol("k")


def _random_rows(rng: random.Random, nrows: int, ncols: int):
    """Sparse rows with some zero rows and some duplicated or rescaled rows."""
    density = rng.choice((0.2, 0.4, 0.7))
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.15:
            rows.append({})
        elif roll < 0.35 and rows:
            f = Fraction(rng.choice((1, -1, 2, -3)), rng.randint(1, 3))
            rows.append({c: f * x for c, x in rng.choice(rows).items()})
        else:
            rows.append({c: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                         for c in range(ncols) if rng.random() < density})
    return rows


def _shapes():
    """(nrows, ncols) pairs: no rows, square, wide and tall systems."""
    rng = random.Random(20261018)
    shapes = [(0, 1), (0, 4), (1, 1), (3, 3), (2, 6), (9, 3), (12, 2)]
    shapes += [(rng.randint(0, 9), rng.randint(1, 7)) for _ in range(200)]
    return shapes


def _augment(rows, rhs):
    """The augmented rows {column: coefficient, RHS: right-hand side}."""
    return [{**row, RHS: b} for row, b in zip(rows, rhs, strict=True)]


def _dense(rows, ncols) -> sympy.Matrix:
    return sympy.Matrix(len(rows), ncols,
                        lambda i, j: sympy.Rational(rows[i].get(j, 0)))


def _to_sympy(x):
    if not isinstance(x, ParamScalar):
        return sympy.Rational(x)
    out = sympy.Integer(0)
    for mono, c in x.terms.items():
        term = sympy.Rational(c)
        for name, e in mono:
            term *= sympy.Symbol(name) ** e
        out += term
    return out


def _k_solutions(conditions):
    """The set of k satisfying every linear condition, as a sympy set.
    linsolve reads an empty system as unsolvable, so a trivial equation is
    always added."""
    return sympy.linsolve([*conditions, sympy.Integer(0)], [K])


def test_rref_and_rank_match_sympy():
    rng = random.Random(4)
    for nrows, ncols in _shapes():
        rows = _random_rows(rng, nrows, ncols)
        ech = row_reduce(rows)
        mat = _dense(rows, ncols)
        rref, pivots = mat.rref()
        assert ech.rank == mat.rank() == len(pivots)
        assert tuple(ech.rows) == pivots
        assert _dense(list(ech.rows.values()), ncols) == rref[:len(pivots), :]


def test_rational_rhs_matches_augmented_rref():
    rng = random.Random(5)
    for nrows, ncols in _shapes():
        rows = _random_rows(rng, nrows, ncols)
        rhs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in rows]
        ech = row_reduce(_augment(rows, rhs))
        aug = _dense(rows, ncols).row_join(
            sympy.Matrix(nrows, 1, [sympy.Rational(b) for b in rhs]))
        rref, pivots = aug.rref()
        consistent = ncols not in pivots
        assert consistent == (not ech.residuals)
        if consistent:
            for i, col in enumerate(ech.rows):
                assert _to_sympy(ech.rhs[col]) == rref[i, ncols]


def test_parametric_rhs_conditions_match_sympy():
    rng = random.Random(6)
    k = ParamScalar.var("k")
    for nrows, ncols in _shapes():
        rows = _random_rows(rng, nrows, ncols)
        mat = _dense(rows, ncols)

        def image(vec):
            return [sum((x * vec[c] for c, x in row.items()), 0)
                    for row in rows]

        def rand_vec():
            return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]

        kind = rng.randrange(3)
        if kind == 0:      # generic: consistent for no k, one k or every k
            rhs = [rng.randint(-3, 3) + k * rng.randint(-2, 2)
                   for _ in rows]
        elif kind == 1:    # consistent at k = k0, and perhaps only there
            k0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            rhs = [b + (k - k0) * rng.randint(-2, 2) for b in image(rand_vec())]
        else:              # consistent for every k
            rhs = [b + k * c for b, c in zip(image(rand_vec()), image(rand_vec()))]
        ech = row_reduce(_augment(rows, rhs))
        b = sympy.Matrix(nrows, 1, [_to_sympy(x) for x in rhs])
        oracle = [(y.T * b)[0, 0] for y in mat.T.nullspace()] if nrows else []
        ours = [_to_sympy(x) for x in ech.residuals]
        assert all(x != 0 for x in ours)
        assert _k_solutions(ours) == _k_solutions(oracle)


def _int_rows(rng: random.Random, nrows: int, ncols: int):
    """Integer rows with entries in -3..3: the leading entry mostly 1 or -1,
    sometimes 2 or -3; some zero rows and some duplicated rows."""
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.1:
            rows.append({})
        elif roll < 0.25 and rows:
            rows.append(dict(rng.choice(rows)))
        else:
            lead = rng.randrange(ncols)
            row = {lead: rng.choice((1, -1, 1, -1, 1, -1, 2, -3))}
            for c in range(lead + 1, ncols):
                if rng.random() < 0.4:
                    row[c] = rng.randint(-3, 3)
            rows.append(row)
    return rows


def _stored_values(ech):
    """Every rational row_reduce stores: the echelon rows and the
    coefficients of the right-hand sides and residuals."""
    for row in ech.rows.values():
        yield from row.values()
    for b in (*ech.rhs.values(), *ech.residuals):
        yield from b.terms.values() if isinstance(b, ParamScalar) else [b]


def test_integer_rows_match_sympy_and_their_fraction_form():
    rng = random.Random(7)
    k = ParamScalar.var("k")
    ints = 0
    for nrows, ncols in _shapes():
        rows = _int_rows(rng, nrows, ncols)
        rhs = [rng.randint(-3, 3) + k * rng.randint(-2, 2) for _ in rows]
        ech = row_reduce(_augment(rows, rhs))
        mat = _dense(rows, ncols)
        rref, pivots = mat.rref()
        assert ech.rank == mat.rank() == len(pivots)
        assert tuple(ech.rows) == pivots
        assert _dense(list(ech.rows.values()), ncols) == rref[:len(pivots), :]
        as_fractions = row_reduce(_augment(
            [{c: Fraction(x) for c, x in row.items()} for row in rows], rhs))
        assert as_fractions.rows == ech.rows
        assert as_fractions.rhs == ech.rhs
        assert as_fractions.residuals == ech.residuals
        for x in _stored_values(ech):
            assert type(x) in (int, Fraction), x
            ints += type(x) is int
    assert ints


def test_unit_pivots_keep_ints():
    ech = row_reduce(_augment([{0: -1, 1: 2}, {1: 1, 2: 3}], [2, 1]))
    assert ech.rows == {0: {0: 1, 2: 6}, 1: {1: 1, 2: 3}}
    assert ech.rhs == {0: 0, 1: 1}
    assert all(type(x) is int for x in _stored_values(ech))
    halved = row_reduce([{0: 2, 1: 1}])
    assert halved.rows == {0: {0: 1, 1: Fraction(1, 2)}}
    assert all(type(x) is Fraction for x in halved.rows[0].values())


def test_a_row_left_with_its_rhs_alone_is_a_residual():
    ech = row_reduce([{0: 1, 1: 2, RHS: 3}, {0: 2, 1: 4, RHS: 5}])
    assert ech.rows == {0: {0: 1, 1: 2}}
    assert ech.rhs == {0: 3}
    assert ech.residuals == [-1]


def test_a_parametric_rhs_that_cancels_is_no_residual():
    k = ParamScalar.var("k")
    ech = row_reduce([{0: 1, RHS: k + 1}, {0: 2, RHS: 2 * k + 2}, {1: -1}])
    assert ech.residuals == []
    assert ech.rows == {0: {0: 1}, 1: {1: 1}}
    assert ech.rhs == {0: k + 1, 1: 0}


def test_a_row_holding_only_rhs_is_never_a_pivot():
    k = ParamScalar.var("k")
    ech = row_reduce([{RHS: 2}, {RHS: k}, {1: 3, RHS: 6}])
    assert ech.rows == {1: {1: 1}}
    assert ech.rhs == {1: 2}
    assert ech.residuals == [2, k]


def test_input_rows_are_not_changed():
    rng = random.Random(8)
    k = ParamScalar.var("k")
    for nrows, ncols in _shapes():
        rows = _augment(_random_rows(rng, nrows, ncols),
                        [rng.randint(-3, 3) + k * rng.randint(-2, 2) for _ in range(nrows)])
        before = copy.deepcopy(rows)
        row_reduce(rows)
        assert rows == before
