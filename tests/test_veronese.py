import collections
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from vertexalg import veronese
from vertexalg.algebroid import WeightOneElement
from vertexalg.errors import InvalidInput, VertexAlgError
from vertexalg.geometry import GluingForm
from vertexalg.laurent import (
    LaurentElement,
    OneForm,
    de_rham,
    degrees,
    exponent_vectors,
    homogeneous_degree,
)
from vertexalg.scalar import RHS, ParamScalar, constant_value, exact, row_reduce, substitute
from vertexalg.veronese import (
    build_model,
    classify_admissible,
    derivations,
    gl2_chart_images,
    higher_witness,
    membership_residuals,
    omega_membership,
    relation_defect,
    solve_charge,
)

V = ("y1", "y2")


def mono(e1, e2, c=1):
    return LaurentElement.monomial(V, (e1, e2), c)


def test_build_model_two_variables():
    m = build_model(2, 2)
    assert m.generators == {"x0": (2, 0), "x1": (1, 1), "x2": (0, 2)}
    assert m.relations == [(("x0", "x2"), ("x1", "x1"))]
    m1 = build_model(2, 1)
    assert m1.relations == []
    m3 = build_model(2, 3)
    assert len(m3.relations) == 3


def test_build_model_three_variables():
    m = build_model(3, 2)
    assert len(m.generators) == 6
    assert len(m.relations) == 6
    for (u, v), (w, z) in m.relations:
        lhs = tuple(a + b for a, b in zip(m.generators[u], m.generators[v]))
        rhs = tuple(a + b for a, b in zip(m.generators[w], m.generators[z]))
        assert lhs == rhs


def test_relations_are_built_on_first_read():
    m = build_model(3, 5)
    higher_witness(m)
    assert "relations" not in m.__dict__
    assert build_model(2, 2).relations == [(("x0", "x2"), ("x1", "x1"))]
    assert build_model(3, 2).relations == [
        (("x0", "x3"), ("x1", "x1")), (("x0", "x4"), ("x1", "x2")),
        (("x0", "x5"), ("x2", "x2")), (("x1", "x4"), ("x2", "x3")),
        (("x1", "x5"), ("x2", "x4")), (("x3", "x5"), ("x4", "x4"))]
    for n in (2, 3):
        corrupt = build_model(n, 2)
        corrupt.generators["x1"] = (2,) + (0,) * (n - 1)
        with pytest.raises(VertexAlgError):
            corrupt.relations


def test_membership_generator_differentials():
    for N in (2, 3):
        m = build_model(2, N)
        for e in m.generators.values():
            assert omega_membership(de_rham(LaurentElement.monomial(V, e)), m)


def test_membership_failures():
    m3 = build_model(2, 3)
    assert not omega_membership(OneForm(V, {1: mono(0, 2)}), m3)
    assert not omega_membership(OneForm(V, {1: mono(1, 1)}), m3)
    m2 = build_model(2, 2)
    assert not omega_membership(OneForm(V, {1: mono(0, 1)}), m2)


def test_membership_product_of_generators():
    # x1 dx1 = y1y2 d(y1y2) lies in the image at degree 2N
    m = build_model(2, 2)
    omega = de_rham(mono(1, 1)).scale(mono(1, 1))
    assert omega_membership(omega, m)


def test_membership_monotone_under_generators():
    rng = random.Random(61)
    m = build_model(2, 2, degree_bound=8)
    gens = [LaurentElement.monomial(m.variables, e) for e in m.generators.values()]
    for _ in range(20):
        omega = OneForm(V)
        deep = rng.random() < 0.5
        for _ in range(rng.randint(1, 3)):
            g = rng.choice(gens)
            mult = rng.choice(gens) if deep else LaurentElement.constant(V, 1)
            omega = omega + de_rham(g).scale(mult).scale(rng.randint(-3, 3))
        assert omega_membership(omega, m)
        scaled = omega.scale(rng.choice(gens))
        assert omega_membership(scaled, m)


def test_membership_degree_bound():
    m = build_model(2, 2, degree_bound=3)
    with pytest.raises(ValueError):
        omega_membership(de_rham(mono(2, 2)).scale(mono(1, 1)), m)


def test_relation_defect_formal():
    m = build_model(2, 2)
    k = ParamScalar.var("k")
    d = relation_defect(m, 0, ("E12", "E22"), k)
    assert not d.field_part
    assert d.form_part == OneForm(V, {1: mono(0, 1).scale(1 - k), 2: mono(1, 0, -2)})


def test_relation_defect_specialized():
    # at the solved charge the defect is an exact differential of a generator
    m = build_model(2, 2)
    d = relation_defect(m, 0, ("E12", "E22"), 3)
    assert d.form_part == de_rham(mono(1, 1)).scale(-2)
    assert omega_membership(d.form_part, m)


def test_relation_defect_closed_form():
    # (E12, E22): ((N-1-2r) - k) y1^r y2^(N-1-r) dy1 - 2(N-1-r) y1^(r+1) y2^(N-2-r) dy2
    # (E11, E21): 2r y1^(r-1) y2^(N-r) dy1 + ((N-1-2r) + k) y1^r y2^(N-1-r) dy2
    k = ParamScalar.var("k")
    for N in range(2, 25):
        m = build_model(2, N)
        for r in range(N):
            shift = N - 1 - 2 * r
            closed = {
                ("E12", "E22"): {1: mono(r, N - 1 - r, shift - k),
                                 2: mono(r + 1, N - 2 - r, -2 * (N - 1 - r))},
                ("E11", "E21"): {1: mono(r - 1, N - r, 2 * r),
                                 2: mono(r, N - 1 - r, shift + k)},
            }
            for pair, components in closed.items():
                d = relation_defect(m, r, pair, k)
                assert not d.field_part
                assert d.form_part == OneForm(V, components), (N, r, pair)


def _terms(x) -> dict:
    """The terms of a scalar: a number is its own constant term."""
    return x.terms if isinstance(x, ParamScalar) else {(): x}


def _sympy(x):
    return sum((sympy.Rational(c) * sympy.Mul(*(sympy.Symbol(name) ** e for name, e in mono))
                for mono, c in _terms(x).items()), sympy.Integer(0))


def test_charge_from_the_block_algebra():
    # A closed-form defect (above) has degree N, so its multiplier has degree
    # 0 and its multidegree block holds one span column: d(x_g) for the
    # generator x_g of the same exponent, g1 y1^(g1-1) y2^g2 dy1 +
    # g2 y1^g1 y2^(g2-1) dy2.  On the generic r the defect has both terms, and
    # it is in the span exactly when its 2x2 minor against d(x_g) vanishes.
    N, r, k = sympy.symbols("N r k")
    # pair: ((dy1, dy2) coefficients, exponent of x_g, minor, minor at k = N - 1)
    blocks = {
        ("E12", "E22"): ((N - 1 - 2 * r - k, -2 * (N - 1 - r)), (r + 1, N - 1 - r),
                         (N - 1 - r) * (N + 1 - k), 2 * (N - 1 - r)),
        ("E11", "E21"): ((2 * r, N - 1 - 2 * r + k), (r, N - r),
                         r * (N + 1 - k), 2 * r),
    }
    for (a, b), (g1, g2), minor, at_n_minus_1 in blocks.values():
        det = a * g2 - b * g1
        assert sympy.factor(det) == sympy.factor(minor)
        assert len(sympy.factor_list(det)[1]) == 2
        assert sympy.expand(det.subs(k, N - 1) - at_n_minus_1) == 0
    # elimination with the first row of the defect as pivot row leaves the
    # second row's residual: -minor/g1 when dy1 comes first, minor/g2 when dy2
    # does; it vanishes exactly at k = N + 1
    for Nv in range(2, 13):
        model = build_model(2, Nv)
        for pair, (_, gexp, minor, _) in blocks.items():
            generic = range(Nv - 1) if pair == ("E12", "E22") else range(1, Nv)
            for rv in range(Nv):
                defect = relation_defect(model, rv, pair).form_part
                got = membership_residuals(defect, model)
                if rv not in generic:
                    assert len(defect.terms) == 1 and got == [], (Nv, pair, rv)
                    continue
                assert sorted(defect.terms) == [1, 2] and len(got) == 1
                values = {N: Nv, r: rv}
                pivot = next(iter(defect.terms))
                predicted = minor.subs(values) / gexp[pivot - 1].subs(values)
                if pivot == 1:
                    predicted = -predicted
                assert sympy.expand(_sympy(got[0]) - predicted) == 0, (Nv, pair, rv)


def test_relation_defect_chart_cache_is_keyed_by_value():
    # calls at different k interleave; 3 and Fraction(3) share an entry
    def at(form: OneForm, value) -> OneForm:
        return OneForm(V, {j: LaurentElement(V, {e: substitute(c, {"k": value})
                                                 for e, c in g.terms.items()})
                           for j, g in form.terms.items()})

    veronese._embedded_chart_images.cache_clear()
    k = ParamScalar.var("k")
    values = (3, k, Fraction(7, 2), Fraction(3), 3)
    for N in range(2, 6):
        m = build_model(2, N)
        for pair in veronese.RELATION_PAIRS:
            for r in range(N):
                symbolic = relation_defect(m, r, pair, k).form_part
                for value in values:
                    got = relation_defect(m, r, pair, value)
                    assert got == WeightOneElement.form("U1", at(symbolic, value)), \
                        (N, pair, r, value)
    assert veronese._embedded_chart_images.cache_info().currsize == 3


def test_relation_defect_all_instances_at_charge():
    for N in (2, 3):
        m = build_model(2, N)
        for pair in (("E12", "E22"), ("E11", "E21")):
            for r in range(N):
                d = relation_defect(m, r, pair, N + 1)
                assert not d.field_part
                assert omega_membership(d.form_part, m), (N, pair, r)
                assert degrees(d.form_part) == {N}, (N, pair, r)


def test_relation_defect_rejects_bad_input():
    m = build_model(2, 2)
    with pytest.raises(ValueError):
        relation_defect(m, 2, ("E12", "E22"))
    with pytest.raises(ValueError):
        relation_defect(m, 0, ("E12", "E21"))


def test_classify_admissible():
    m2 = build_model(2, 2)
    assert classify_admissible(m2, 4) == [GluingForm.basis(1, 1)]
    m3 = build_model(2, 3)
    assert classify_admissible(m3, 5) == [GluingForm.basis(1, 1)]
    assert classify_admissible(m3, 6) == [GluingForm.basis(1, 1)]


def test_solve_charge():
    for N in (2, 3, 4, 5, 6):
        res = solve_charge(build_model(2, N))
        assert res.status == "unique"
        assert res.charge == Fraction(N + 1)
        assert res.admissible_gluing == GluingForm.basis(1, 1)


def test_solve_charge_degree_one():
    res = solve_charge(build_model(2, 1))
    assert res.status == "unconstrained"
    assert res.charge is None


def test_solve_charge_per_instance_conditions():
    # each (pair, r) instance alone is already satisfied at k = N + 1
    from vertexalg.scalar import solve_linear_system

    k = ParamScalar.var("k")
    for N in (2, 3):
        m = build_model(2, N)
        for pair in (("E12", "E22"), ("E11", "E21")):
            for r in range(N):
                conds = membership_residuals(
                    relation_defect(m, r, pair, k).form_part, m)
                if not conds:
                    continue
                sol = solve_linear_system(conds, ["k"])
                assert sol.status in ("unique", "underdetermined")
                if sol.status == "unique":
                    assert sol.assignment["k"] == N + 1


def test_gl2_chart_images_match_geometry():
    from vertexalg.geometry import extend_section, GluingForm

    k = ParamScalar.var("k")
    images = gl2_chart_images(k)
    # each image is the extension of its vector-field part across the gluing
    omega = GluingForm.basis(1, 1, k)
    for name, im in images.items():
        bare = type(im)(im.chart, im.variables, dict(im.field_part))
        assert extend_section(bare, omega) == im, name


def test_derivations_degree_zero():
    for N in (2, 3, 4, 5):
        m = build_model(2, N)
        rep = derivations(m, 0)
        assert rep.dimension == 4
        assert rep.gl_generates


def test_derivations_positive_degree():
    # the invariant multiples of y_a d/dy_b span the degree-d derivations,
    # whose dimension is 2d + 4
    for N, d in ((2, 2), (2, 4), (2, 6), (2, 8), (2, 10), (3, 3),
                 (2, 12), (3, 6), (4, 4), (6, 6), (4, 8), (5, 10), (12, 12)):
        rep = derivations(build_model(2, N, max(d, 2 * N + 2)), d)
        assert rep.gl_generates, (N, d)
        assert rep.dimension == 2 * d + 4, (N, d)


def test_derivation_checks_catch_a_lost_pivot_row(monkeypatch):
    # an elimination that loses its last pivot row leaves a block one
    # dimension more than it has coordinate fields
    row_reduce = veronese.row_reduce

    def lossy(rows):
        echelon = row_reduce(rows)
        return echelon._replace(rows=dict(list(echelon.rows.items())[:-1]))

    monkeypatch.setattr(veronese, "row_reduce", lossy)
    with pytest.raises(VertexAlgError, match="disagrees with the count of coordinate fields"):
        derivations(build_model(2, 3), 3)


def test_derivation_checks_catch_a_wrong_coordinate_field():
    # a relation that is not a syzygy (x0^2 = x1^2) puts a row on every block
    # that no coordinate-field multiple satisfies
    model = build_model(2, 3)
    model.__dict__["relations"] = model.relations + [(("x0", "x0"), ("x1", "x1"))]
    with pytest.raises(VertexAlgError, match="coordinate-field image violates a relation"):
        derivations(model, 3)


# (n, N, d), d a multiple of N: the total n * C(d + n, n - 1) runs from 4 to 80
DERIVATION_GRID = [(2, 2, 0), (2, 3, 3), (2, 4, 8), (3, 2, 0), (3, 2, 2), (3, 3, 3),
                   (4, 2, 2), (2, 3, -3), (3, 1, -1)]


def _closed_counts(n: int, d: int) -> collections.Counter:
    """Z_N acts by scalars, so it has no pseudo-reflections and every
    derivation of the invariant ring is an invariant polynomial vector field
    (Schlessinger, Invent. Math. 14, 1971): character chi carries one for
    each b with chi + e_b >= 0.  Those chi are p - e_b with p >= 0 of degree
    d + 1."""
    counts = collections.Counter()
    for p in exponent_vectors(d + 1, n) if d + 1 >= 0 else ():
        for b in range(n):
            chi = p[:b] + (p[b] - 1,) + p[b + 1:]
            counts[chi] = sum(min(chi[:c] + (chi[c] + 1,) + chi[c + 1:]) >= 0
                              for c in range(n))
    return counts


@pytest.mark.parametrize("n, N, d", DERIVATION_GRID)
def test_derivation_blocks_match_the_closed_count(n, N, d):
    model = build_model(n, N, max(abs(d), 2 * N + 2))
    rep = derivations(model, d)
    # below degree 0 no y_a d/dy_b multiple exists, so only zero is spanned
    assert rep.gl_generates == (d >= 0 or not rep.basis)
    per_character = collections.Counter()
    for field in rep.basis:
        # the character chi = exp - e_b of every component f_b y^exp d/dy_b
        chars = {tuple(e - (a == b - 1) for a, e in enumerate(exp))
                 for b, component in field.items() for exp in component.terms}
        assert len(chars) == 1, (n, N, d)
        per_character[chars.pop()] += 1
    assert per_character == _closed_counts(n, d)
    total = n * math.comb(d + n, n - 1) if d >= 0 else sum(per_character.values())
    assert rep.dimension == len(rep.basis) == total


def test_one_solve_per_generator_tuple(monkeypatch):
    # every block with chi >= 0 holds every generator and shares one solve
    model = build_model(2, 2, 10)
    blocks = veronese._character_blocks(model, list(exponent_vectors(12, 2)))
    assert (len(blocks), len({tuple(names) for names in blocks.values()})) == (15, 5)
    calls = []
    solve = veronese._block_fields

    def counted(model, names):
        calls.append(tuple(names))
        return solve(model, names)

    monkeypatch.setattr(veronese, "_block_fields", counted)
    assert derivations(model, 10).dimension == 24
    assert len(calls) == len(set(calls)) == 5


def _generator_images(model, field: dict) -> dict:
    """D(x_g) = sum_b exp(x_g)_b y^(exp(x_g) - e_b) f_b by Laurent products,
    for the derivation D with field components {b: f_b}."""
    vs = model.variables
    images = {}
    for g, gexp in model.generators.items():
        image = LaurentElement(vs)
        for b, component in field.items():
            if gexp[b - 1]:
                down = tuple(e - (a == b - 1) for a, e in enumerate(gexp))
                image = image + component * LaurentElement.monomial(vs, down, gexp[b - 1])
        images[g] = image
    return images


@pytest.mark.parametrize("n, N, d", DERIVATION_GRID)
def test_shared_solve_matches_a_solve_per_block(n, N, d):
    # the reference takes every block on its own, in the same block order,
    # from its own relation rows, and ranks each block's own coordinate-field
    # multiples against its nullity; the generator images of the block's
    # basis fields, as vectors over its columns, must lie in sympy's
    # nullspace of those rows and be as many as its nullity, and those
    # images must preserve every relation in the Laurent ring
    model = build_model(n, N, max(abs(d), 2 * N + 2))
    gens = model.generators
    rep = derivations(model, d)
    basis_images = [_generator_images(model, field) for field in rep.basis]
    fields = iter(basis_images)
    generates = True
    monos = list(exponent_vectors(N + d, n))
    for chi, names in veronese._character_blocks(model, monos).items():
        local = {g: col for col, g in enumerate(names)}
        rows = []
        for (u, v), (w, z) in model.relations:
            row = collections.Counter()
            for g, sign in ((u, 1), (v, 1), (w, -1), (z, -1)):
                if g in local:
                    row[local[g]] += sign
            rows.append(row)
        mat = sympy.Matrix(len(rows), len(names), lambda i, j: rows[i][j])
        null = mat.nullspace()
        multiples = []
        for b in range(n):
            lifted = [c + (a == b) for a, c in enumerate(chi)]
            if min(lifted) >= 0 and any(lifted):
                assert all(g in local for g in gens if gens[g][b]), (n, N, d, chi)
                multiples.append({local[g]: gens[g][b] for g in gens if gens[g][b]})
        rank = row_reduce(multiples).rank
        assert rank == len(multiples), (n, N, d, chi)
        generates = generates and rank == len(null)
        vectors = []
        for images in itertools.islice(fields, len(null)):
            vec = sympy.zeros(len(names), 1)
            for g, image in images.items():
                if image:
                    assert image.terms.keys() == {tuple(map(sum, zip(chi, gens[g])))}
                    (vec[local[g]],) = image.terms.values()
            assert mat * vec == sympy.zeros(len(rows), 1), (n, N, d, chi)
            vectors.append(vec)
        assert len(vectors) == len(null), (n, N, d, chi)
        if null:
            assert sympy.Matrix.hstack(*vectors, *null).rank() == len(null), (n, N, d, chi)
    assert next(fields, None) is None
    assert rep.dimension == len(basis_images)
    for images in basis_images:
        for (u, v), (w, z) in model.relations:
            x = {g: LaurentElement.monomial(model.variables, model.generators[g])
                 for g in (u, v, w, z)}
            assert (images[u] * x[v] + x[u] * images[v]
                    == images[w] * x[z] + x[w] * images[z]), (n, N, d)
    assert rep.gl_generates == generates


def test_basis_components_are_stored_as_the_public_constructor_stores_them():
    # each basis field {b: y^(chi + e_b)} is built from canonical terms; its
    # component must equal and hash like the public constructor's monomial,
    # and store its coefficient as the int 1
    for n, N, d in DERIVATION_GRID:
        model = build_model(n, N, max(abs(d), 2 * N + 2))
        vs = model.variables
        expected = []
        monos = list(exponent_vectors(N + d, n))
        for chi, names in veronese._character_blocks(model, monos).items():
            for b in veronese._block_fields(model, names):
                expected.append({b + 1: LaurentElement.monomial(
                    vs, [c + (a == b) for a, c in enumerate(chi)])})
        basis = derivations(model, d).basis
        assert basis == expected, (n, N, d)
        for field, reference in zip(basis, expected):
            for b, component in field.items():
                assert hash(component) == hash(reference[b])
                assert component.variables == vs
                (c,) = component.terms.values()
                assert type(c) is int and c == 1, (n, N, d, c)


def _unblocked_nullity(model, d: int) -> int:
    """Nullity of the whole derivation system, one column per (generator,
    monomial) and one row per target monomial of every pair of generator
    pairs with equal product, ranked by sympy."""
    gens = model.generators
    monos = list(exponent_vectors(model.N + d, model.n))
    column = {key: j for j, key in enumerate(itertools.product(gens, monos))}
    same_product = collections.defaultdict(list)
    for u, v in itertools.combinations_with_replacement(gens, 2):
        same_product[tuple(a + b for a, b in zip(gens[u], gens[v]))].append((u, v))
    rows = []
    for pairs in same_product.values():
        for (u, v), (w, z) in itertools.combinations(pairs, 2):
            for target in exponent_vectors(2 * model.N + d, model.n):
                row = [0] * len(column)
                for g, other, sign in ((u, v, 1), (v, u, 1), (w, z, -1), (z, w, -1)):
                    m = tuple(a - b for a, b in zip(target, gens[other]))
                    if (g, m) in column:
                        row[column[g, m]] += sign
                rows.append(row)
    return len(column) - _rank(sympy.Matrix(rows))


@pytest.mark.parametrize("n, N, d", [(2, 3, 3), (3, 2, 0), (3, 2, 2)])
def test_derivation_dimension_matches_a_sympy_nullity(n, N, d):
    model = build_model(n, N)
    assert derivations(model, d).dimension == _unblocked_nullity(model, d)


def test_relations_connect_equal_products():
    for n, Ns in ((2, range(1, 9)), (3, range(1, 5)), (4, range(1, 4))):
        for N in Ns:
            m = build_model(n, N)

            def product(pair):
                u, v = pair
                return tuple(a + b for a, b in zip(m.generators[u], m.generators[v]))

            pairs = list(itertools.combinations_with_replacement(m.generators, 2))
            products = {product(p) for p in pairs}
            assert len(m.relations) == len(pairs) - len(products), (n, N)
            root = {p: p for p in pairs}

            def find(p):
                while root[p] != p:
                    p = root[p]
                return p

            for left, right in m.relations:
                assert product(left) == product(right)
                root[find(left)] = find(right)
            classes: dict = {}
            for p in pairs:
                classes.setdefault(product(p), set()).add(find(p))
            assert all(len(roots) == 1 for roots in classes.values()), (n, N)


def test_derivations_off_grading():
    m = build_model(2, 3)
    rep = derivations(m, 1)
    assert rep.dimension == 0


def test_higher_witness():
    for n, N in ((3, 2), (3, 3), (4, 2)):
        m = build_model(n, N)
        witness, verdict = higher_witness(m)
        assert verdict == "non-quantizable"
        assert not witness.field_part
        assert degrees(witness.form_part) == {N}
        assert not omega_membership(witness.form_part, m)


def test_higher_witness_closed_form():
    # for three variables: y2^(N-1) dy3 + (N-2) y2^(N-2) y3 dy2
    for N in (2, 3):
        m = build_model(3, N)
        witness, _ = higher_witness(m)
        vs = m.variables
        want = OneForm(vs, {
            3: LaurentElement.monomial(vs, (0, N - 1, 0)),
            2: LaurentElement.monomial(vs, (0, N - 2, 1), N - 2),
        })
        assert witness.form_part == want


def test_higher_witness_refuses_degree_one():
    with pytest.raises(ValueError):
        higher_witness(build_model(3, 1))
    with pytest.raises(ValueError):
        higher_witness(build_model(2, 2))


def test_out_of_range_arguments_raise_invalid_input():
    m2, m3 = build_model(2, 2), build_model(3, 2)
    calls = [lambda: build_model(2, 0),
             lambda: build_model(1, 2),
             lambda: membership_residuals(de_rham(mono(5, 4)), m2),
             lambda: derivations(m2, 12),
             lambda: relation_defect(m2, 2),
             lambda: relation_defect(m3, 0),
             lambda: higher_witness(m2),
             lambda: higher_witness(build_model(3, 1))]
    for call in calls:
        with pytest.raises(InvalidInput) as info:
            call()
        assert isinstance(info.value, ValueError)


# -- membership by multidegree block against the full span ----------------------


def _coordinates(form: OneForm) -> dict:
    return {(i, exp): c for i, g in form.terms.items() for exp, c in g.terms.items()}


@functools.cache
def _full_span(n: int, N: int, degree: int) -> list[dict]:
    """The coordinates of every column m*dx_g of the span at this degree,
    none dropped."""
    model = build_model(n, N)
    span = []
    if degree >= N and (degree - N) % N == 0:
        for m in exponent_vectors(degree - N, n):
            mono_m = LaurentElement.monomial(model.variables, m)
            for gexp in model.generators.values():
                g = LaurentElement.monomial(model.variables, gexp)
                span.append(_coordinates(de_rham(g).scale(mono_m)))
    return span


def _full_span_residuals(omega: OneForm, model) -> list[ParamScalar]:
    """Residuals of omega against the unrestricted span matrix."""
    degree = homogeneous_degree(omega)
    if degree is None:
        return []
    rows = {c: {RHS: b} for c, b in _coordinates(omega).items()}
    for j, column in enumerate(_full_span(model.n, model.N, degree)):
        for coord, c in column.items():
            rows.setdefault(coord, {})[j] = constant_value(c)
    return row_reduce(rows.values()).residuals


_SHAPES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]


def _random_coefficient(rng: random.Random) -> ParamScalar:
    c = exact(Fraction(rng.choice((1, -1, 2, -3, 5)), rng.randint(1, 3)))
    if rng.random() < 0.3:
        c = c + ParamScalar.var("k").scale(rng.randint(-2, 2))
    return c


def _random_coordinate(rng: random.Random, n: int, degree: int) -> tuple[int, tuple]:
    """A coordinate y^e dy_i of the given degree, sometimes with a pole."""
    e = list(rng.choice(list(exponent_vectors(degree - 1, n))))
    if rng.random() < 0.35:
        a, b = rng.sample(range(n), 2)
        shift = rng.randint(1, 2)
        e[a] -= shift
        e[b] += shift
    return rng.randint(1, n), tuple(e)


def _random_form(rng: random.Random, model) -> OneForm:
    """A member (a combination of span columns), a member plus stray
    coordinates, or stray coordinates alone, mostly of a degree the span
    does not reach."""
    n, N = model.n, model.N
    if rng.random() < 0.1:
        degree = rng.choice([d for d in range(1, 2 * N + 1) if d % N] or [2 * N + 1])
        span = []
    else:
        degree = rng.choice((N, 2 * N))
        span = _full_span(model.n, model.N, degree)
    omega = OneForm(model.variables)
    for column in rng.sample(span, min(len(span), rng.randint(1, 3))):
        c = _random_coefficient(rng)
        omega = omega + OneForm(model.variables, {
            i: LaurentElement.monomial(model.variables, exp, x * c)
            for (i, exp), x in column.items()})
    if not span or rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            i, e = _random_coordinate(rng, n, degree)
            mono_e = LaurentElement.monomial(model.variables, e, _random_coefficient(rng))
            omega = omega + OneForm(model.variables, {i: mono_e})
    return omega


def _random_forms(seed: int, count: int):
    rng = random.Random(seed)
    models = {shape: build_model(*shape, degree_bound=10) for shape in _SHAPES}
    for _ in range(count):
        model = models[rng.choice(_SHAPES)]
        yield _random_form(rng, model), model


def test_membership_blocks_match_the_full_span():
    members = non_members = poles = 0
    for omega, model in _random_forms(20261018, 2200):
        got = membership_residuals(omega, model)
        assert got == _full_span_residuals(omega, model), (omega, model.n, model.N)
        members += not got
        non_members += bool(got)
        poles += any(min(exp) < 0 for _, exp in _coordinates(omega))
    assert members >= 500 and non_members >= 500 and poles >= 200


def test_membership_verdicts_match_a_sympy_rank_test():
    k = (("k", 1),)
    verdicts = set()
    for omega, model in _random_forms(7, 150):
        degree = homogeneous_degree(omega)
        if degree is None:
            continue
        span = [{c: constant_value(x) for c, x in column.items()}
                for column in _full_span(model.n, model.N, degree)]
        target = _coordinates(omega)
        coords = sorted(set(target).union(*span))
        # every coefficient is c0 + c1*k, and omega lies in the span for every
        # k exactly when both the c0 and the c1 vectors do
        assert all(set(_terms(v)) <= {(), k} for v in target.values())
        parts = [{c: _terms(v).get(key, 0) for c, v in target.items()} for key in ((), k)]
        a = sympy.Matrix(len(coords), len(span), lambda r, j: span[j].get(coords[r], 0))
        ab = a.row_join(sympy.Matrix(len(coords), 2, lambda r, j: parts[j].get(coords[r], 0)))
        member = _rank(a) == _rank(ab)
        assert omega_membership(omega, model) == member
        verdicts.add(member)
    assert verdicts == {True, False}


def _rank(m: sympy.Matrix) -> int:
    return DomainMatrix.from_Matrix(m).convert_to(sympy.QQ).rank()
