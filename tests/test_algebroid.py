import inspect
import itertools
import random
from fractions import Fraction

import pytest
import sympy

from classical import bracket
from vertexalg import algebroid, scalar
from vertexalg.algebroid import (
    WeightOneElement,
    embed,
    extract,
    fock_algebra,
    gl_basis,
    morphism_check,
    oracle_vprod,
    vprod,
)
from vertexalg.errors import ChartMismatch, InvalidInput, RuleOracleDivergence, VertexAlgError
from vertexalg.freefield import nproduct
from vertexalg.laurent import LaurentElement, OneForm, degrees
from vertexalg.scalar import (
    RHS,
    LinearCombination,
    ParamScalar,
    accumulate,
    exact,
    solve_linear_system,
    substitute,
)
from vertexalg.veronese import build_model, gl2_chart_images, solve_charge

V = ("y1", "y2")
C = "overlap"


def mono(e1, e2, c=1):
    return LaurentElement.monomial(V, (e1, e2), c)


def fld(i, f):
    return WeightOneElement.field(C, V, i, f)


def frm(comps):
    return WeightOneElement.form(C, OneForm(V, comps))


def random_element(rng, lo=-1, hi=2, variables=V):
    n = len(variables)

    def monomial():
        exp = [rng.randint(lo, hi) for _ in range(n)]
        return LaurentElement.monomial(variables, exp, rng.randint(-3, 3))

    f = LaurentElement(variables)
    for _ in range(rng.randint(1, 2)):
        f = f + monomial()
    v = WeightOneElement.field(C, variables, rng.randint(1, n), f)
    if rng.random() < 0.5:
        g = monomial()
        v = v + WeightOneElement.form(C, OneForm(variables, {rng.randint(1, n): g}))
    return v


def test_vprod1_instances():
    assert vprod(fld(2, mono(1, 0)), 1, fld(1, mono(0, 1))) == LaurentElement.constant(V, -1)
    assert vprod(fld(1, LaurentElement.constant(V, 1)), 1,
                 fld(2, LaurentElement.constant(V, 1))).is_zero()
    # field against form is contraction
    k = ParamScalar.var("k")
    assert vprod(fld(2, mono(1, 0)), 1, frm({2: mono(-1, 0, 1).scale(k)})) == \
        LaurentElement.constant(V, 1).scale(k)
    # forms pair to zero
    assert vprod(frm({1: mono(1, 0)}), 1, frm({2: mono(0, 1)})).is_zero()


def test_vprod0_classical_bracket():
    out = vprod(fld(1, LaurentElement.constant(V, 1)), 0, fld(2, mono(1, 0)))
    assert out == fld(2, LaurentElement.constant(V, 1))


def test_vprod0_with_laurent_form_correction():
    # the identity-type bracket on the chart where y1 is invertible
    k = ParamScalar.var("k")
    e11 = fld(1, mono(1, 0))
    e21 = fld(1, mono(0, 1)) + frm({2: mono(-1, 0, -1).scale(k)})
    got = vprod(e11, 0, e21)
    assert got == -e21


def test_chart_mismatch():
    u, other = fld(1, mono(1, 0)), WeightOneElement.field("other", V, 1, mono(1, 0))
    with pytest.raises(ChartMismatch):
        vprod(u, 1, other)
    with pytest.raises(ChartMismatch):
        u + other
    assert u != other and u.terms == other.terms
    assert u == fld(1, mono(1, 0)) and hash(u) == hash(fld(1, mono(1, 0)))


def test_embed_extract_roundtrip():
    rng = random.Random(23)
    alg = fock_algebra(V)
    for _ in range(50):
        v = random_element(rng)
        assert extract(embed(v, alg), C) == v


def test_oracle_equivalence_random():
    rng = random.Random(29)
    for _ in range(100):
        u = random_element(rng, lo=0, hi=3)
        v = random_element(rng, lo=0, hi=3)
        assert vprod(u, 1, v) == oracle_vprod(u, 1, v)
        assert vprod(u, 0, v) == oracle_vprod(u, 0, v)


def test_oracle_equivalence_laurent_random():
    rng = random.Random(31)
    for _ in range(40):
        u = random_element(rng)
        v = random_element(rng)
        assert vprod(u, 1, v) == oracle_vprod(u, 1, v)
        assert vprod(u, 0, v) == oracle_vprod(u, 0, v)


@pytest.mark.parametrize("n", [3, 4])
def test_oracle_equivalence_more_variables(n):
    rng = random.Random(43 + n)
    variables = tuple(f"y{i}" for i in range(1, n + 1))
    for _ in range(40):
        u = random_element(rng, variables=variables)
        v = random_element(rng, variables=variables)
        assert vprod(u, 1, v) == oracle_vprod(u, 1, v)
        assert vprod(u, 0, v) == oracle_vprod(u, 0, v)
    # the linear images y_a d/dy_b of morphism --n, whose second derivatives vanish
    linear = [WeightOneElement.field(C, variables, b, LaurentElement.coordinate(variables, a))
              for a in range(1, n + 1) for b in range(1, n + 1)]
    for u in linear:
        for v in rng.sample(linear, 4):
            assert vprod(u, 1, v) == oracle_vprod(u, 1, v)
            assert vprod(u, 0, v) == oracle_vprod(u, 0, v)


def _gl_bracket_table(n):
    """[E_ab, E_cd] = delta_bc E_ad - delta_da E_cb, as {generator: coefficient}."""
    name = dict(zip(itertools.product(range(1, n + 1), repeat=2), gl_basis(n)))
    table = {}
    for a, b, c, d in itertools.product(range(1, n + 1), repeat=4):
        out = {}
        if b == c:
            accumulate(out, name[a, d], 1)
        if d == a:
            accumulate(out, name[c, b], -1)
        table[name[a, b], name[c, d]] = out
    return table


def _gl_pairing_table(n):
    """(a, b) = k1 tr(a0 b0) + k2 tr(a) tr(b) / n, a0 the traceless part;
    with t = tr(a) tr(b) / n that is k1 (tr(ab) - t) + k2 t."""
    name = dict(zip(itertools.product(range(1, n + 1), repeat=2), gl_basis(n)))
    table = {}
    for a, b, c, d in itertools.product(range(1, n + 1), repeat=4):
        tr_prod = int(b == c and a == d)
        trace = Fraction(int(a == b and c == d), n)
        table[name[a, b], name[c, d]] = ParamScalar(
            {(("k1", 1),): tr_prod - trace, (("k2", 1),): trace})
    return table


def test_gl_pairing_table_matches_the_product_formula():
    k1, k2 = ParamScalar.var("k1"), ParamScalar.var("k2")
    for n in range(2, 6):
        table = _gl_pairing_table(n)
        assert len(table) == n ** 4
        for a, b, c, d in itertools.product(range(1, n + 1), repeat=4):
            tr_prod = Fraction(1 if (b == c and a == d) else 0)
            trace = Fraction(1 if a == b else 0) * Fraction(1 if c == d else 0) / n
            want = k1 * exact(tr_prod - trace) + k2 * exact(trace)
            got = table[(f"E{a}{b}", f"E{c}{d}")]
            assert got == want and hash(got) == hash(want) and str(got) == str(want)


def test_vprod1_symmetric_random():
    rng = random.Random(37)
    for _ in range(100):
        u = random_element(rng)
        v = random_element(rng)
        assert vprod(u, 1, v) == vprod(v, 1, u)


def test_symbol_intertwines_bracket_random():
    rng = random.Random(41)
    for _ in range(100):
        u = random_element(rng)
        v = random_element(rng)
        assert vprod(u, 0, v).field_part == bracket(u.field_part, v.field_part)


def gl2_images(k):
    e12 = fld(2, mono(1, 0))
    e21 = fld(1, mono(0, 1)) + frm({2: mono(-1, 0, -1).scale(k)})
    e11 = fld(1, mono(1, 0))
    e22 = fld(2, mono(0, 1)) + frm({1: mono(-1, 0, 1).scale(k)})
    return {"E11": e11, "E12": e12, "E21": e21, "E22": e22}


def test_gl2_morphism_formal_levels():
    k = ParamScalar.var("k")
    rep = morphism_check(gl2_images(k))
    assert rep.status == "pass", rep.failures
    assert rep.levels == (-k - 1, k - 1)


def test_gl2_morphism_specialized_levels():
    for N in (2, 3):
        rep = morphism_check(gl2_images(N + 1))
        assert rep.status == "pass", rep.failures
        assert rep.levels == (-N - 2, N)


def test_gln_tautological_levels():
    for n in (2, 3, 4):
        variables = tuple(f"y{i}" for i in range(1, n + 1))
        images = {}
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                exp = [0] * n
                exp[a - 1] = 1
                images[f"E{a}{b}"] = WeightOneElement.field(
                    "affine", variables, b, LaurentElement.monomial(variables, exp))
        rep = morphism_check(images)
        assert rep.status == "pass", rep.failures
        assert rep.levels == (-1, -1)


def test_gl_basis_names_are_distinct():
    for n in range(2, 13):
        names = gl_basis(n)
        assert len(set(names)) == n * n
        pairs = itertools.product(range(1, n + 1), repeat=2)
        assert names == [f"E{a}{b}" if n <= 9 else f"E{a},{b}" for a, b in pairs]


def test_morphism_check_needs_the_gl_basis_keys():
    images = gl2_images(ParamScalar.var("k"))
    images["E1,2"] = images.pop("E12")
    with pytest.raises(InvalidInput, match=r"gl_basis\(2\)"):
        morphism_check(images)
    with pytest.raises(InvalidInput):
        morphism_check({name: images["E11"] for name in ("E11", "E12", "E21")})


def test_identity_current_pairing():
    # I = y1 (x) frame_1 + y2 (x) frame_2 pairs with itself to -2 on the plane
    i_cur = fld(1, mono(1, 0)) + fld(2, mono(0, 1))
    assert vprod(i_cur, 1, i_cur) == LaurentElement.constant(V, -2)


def test_morphism_failure_reported():
    k = ParamScalar.var("k")
    images = gl2_images(k)
    images["E12"] = images["E12"] + frm({1: mono(1, 0)})
    rep = morphism_check(images)
    assert rep.status == "fail"
    assert rep.failures


def _parameters(x) -> set[str]:
    """The formal parameters of a scalar or of a combination over scalars,
    read from the terms."""
    if type(x) is ParamScalar:
        return {name for mono in x.terms for name, _ in mono}
    if isinstance(x, LinearCombination):
        return set().union(*map(_parameters, x.terms.values()))
    return set()


def _per_pair_morphism_check(basis, brackets, pairing, images):
    """morphism_check as it was before equal equations were merged: every
    pair's equation goes to the solve and is substituted on its own."""
    unknowns = sorted(set().union(*(_parameters(val) for val in pairing.values()))
                      .difference(*(_parameters(im) for im in images.values())))
    failures, equations, computed1 = [], [], {}
    for a in basis:
        for b in basis:
            p = vprod(images[a], 1, images[b])
            if p and degrees(p) != {0}:
                failures.append(((a, b), 1, f"non-scalar pairing {p}"))
                continue
            computed1[(a, b)] = p.constant_term()
            equations.append(((a, b), p.constant_term() - pairing[(a, b)]))
    levels = None
    if unknowns:
        sol = algebroid.solve_linear_system([eq for _, eq in equations], unknowns)
        if sol.status != "unique":
            failures.append((("pairing", "solve"), 1, f"level solve {sol.status}"))
        else:
            levels = (sol.assignment.get("k1"), sol.assignment.get("k2"))
            for pair, eq in equations:
                if substitute(eq, sol.assignment) != 0:
                    failures.append((pair, 1, "pairing defect at solved levels"))
    else:
        for (a, b), val in computed1.items():
            if val != pairing[(a, b)]:
                failures.append(((a, b), 1, f"pairing {val} != {pairing[(a, b)]}"))
    for a in basis:
        for b in basis:
            got = vprod(images[a], 0, images[b])
            want = WeightOneElement(got.chart, got.variables)
            for gen, coeff in brackets[(a, b)].items():
                want = want + images[gen].scale(coeff)
            if got != want:
                failures.append(((a, b), 0, f"bracket defect {(got - want)!r}"))
    return algebroid.MorphismReport("pass" if not failures else "fail", levels, failures)


def _gln_images(n):
    variables = tuple(f"y{i}" for i in range(1, n + 1))
    return {f"E{a}{b}": WeightOneElement.field(
                "affine", variables, b, LaurentElement.coordinate(variables, a))
            for a in range(1, n + 1) for b in range(1, n + 1)}


def _morphism_cases():
    k = ParamScalar.var("k")
    for value in (k, 3, Fraction(7, 3)):
        yield 2, gl2_images(value)
    extra = gl2_images(k)
    extra["E12"] = extra["E12"] + frm({1: mono(1, 0)})
    yield 2, extra
    doubled = gl2_images(k)
    doubled["E21"] = doubled["E21"].scale(2)
    yield 2, doubled
    yield 3, _gln_images(3)
    yield 4, _gln_images(4)


def _sympy(x):
    if not isinstance(x, ParamScalar):
        return sympy.Rational(x)
    return sum((sympy.Rational(c) * sympy.Mul(*(sympy.Symbol(name) ** e for name, e in mono))
                for mono, c in x.terms.items()), sympy.Integer(0))


def _same_reports(cases):
    for n, images in cases:
        got = morphism_check(images)
        want = _per_pair_morphism_check(gl_basis(n), _gl_bracket_table(n),
                                        _gl_pairing_table(n), images)
        assert (got.status, got.levels, got.failures) == \
            (want.status, want.levels, want.failures)
        yield got


def test_morphism_check_matches_the_per_pair_solve():
    reports = list(_same_reports(_morphism_cases()))
    assert [r.status for r in reports] == ["pass"] * 3 + ["fail"] * 2 + ["pass"] * 2


def test_solves_refuse_an_elimination_with_doubled_right_hand_sides(monkeypatch):
    # the solve checks its unique solution against every equation it built,
    # so the charge and the levels of a skewed elimination never come back
    row_reduce = scalar.row_reduce

    def doubled(rows):
        return row_reduce([{c: 2 * x if c == RHS else x for c, x in row.items()}
                           for row in rows])

    monkeypatch.setattr(scalar, "row_reduce", doubled)
    k1, k2 = ParamScalar.var("k1"), ParamScalar.var("k2")
    message = "the solved values violate an equation of the system"
    with pytest.raises(VertexAlgError, match=message):
        solve_linear_system([k1 + k2 - 3, k1 - k2 - 1], ["k1", "k2"])
    with pytest.raises(VertexAlgError, match=message):
        morphism_check(gl2_chart_images(4))
    with pytest.raises(VertexAlgError, match=message):
        solve_charge(build_model(2, 3))


def test_solved_levels_satisfy_every_pair_equation():
    # sympy substitutes the levels into all n^4 equations, none merged
    for n, images in _morphism_cases():
        pairing = _gl_pairing_table(n)
        rep = morphism_check(images)
        if rep.levels is None:
            continue
        levels = dict(zip(sympy.symbols("k1 k2"), map(_sympy, rep.levels)))
        for a, b in itertools.product(gl_basis(n), repeat=2):
            p = vprod(images[a], 1, images[b])
            if degrees(p) - {0}:  # reported as non-scalar, not an equation
                assert ((a, b), 1, f"non-scalar pairing {p}") in rep.failures
                continue
            residue = _sympy(p.constant_term() - pairing[(a, b)]).subs(levels)
            assert sympy.expand(residue) == 0, (a, b)


def test_rule_oracle_divergence_names_the_difference(monkeypatch):
    one = LaurentElement.constant(V, 1)
    rule1, rule0 = algebroid._vprod1, algebroid._vprod0
    monkeypatch.setattr(algebroid, "_validated", set())
    monkeypatch.setattr(algebroid, "_vprod1", lambda u, v: rule1(u, v) + one)
    with pytest.raises(RuleOracleDivergence, match=r"oracle minus rule is -1\*1$"):
        algebroid._validate_rules(V)
    monkeypatch.setattr(algebroid, "_vprod1", rule1)
    monkeypatch.setattr(
        algebroid, "_vprod0",
        lambda u, v: rule0(u, v) + WeightOneElement.form(u.chart, OneForm(V, {1: one})))
    with pytest.raises(RuleOracleDivergence,
                       match=r"_\(0\) .*oracle minus rule is -1\*T1\(y1\)$"):
        algebroid._validate_rules(V)
    assert V not in algebroid._validated


def test_an_oracle_of_the_wrong_weight_is_a_divergence(monkeypatch):
    # an engine whose _(1) product returns the weight-1 _(0) product: oracle
    # minus rule is taken term by term, so the mixed weights are reported as
    # a divergence on the first row, not raised as InhomogeneousInput
    engine = algebroid.nproduct
    monkeypatch.setattr(algebroid, "_validated", set())
    monkeypatch.setattr(algebroid, "nproduct", lambda a, n, b: engine(a, 0, b))
    first = algebroid._battery(V)[0]
    with pytest.raises(RuleOracleDivergence,
                       match=r"^_\(1\) rule/oracle divergence on .*oracle minus rule is ") as err:
        algebroid._validate_rules(V)
    assert repr(first.left) in str(err.value)
    assert V not in algebroid._validated


def test_a_check_that_raises_is_a_divergence_on_its_row(monkeypatch):
    # a closed form that raises on the last row: the error names that row's
    # pairs and chains the original
    last = algebroid._battery(V)[-1]
    rule0 = algebroid._vprod0

    def crashing(u, v):
        if (u, v) == (last.left, last.right):
            raise KeyError("boom")
        return rule0(u, v)

    monkeypatch.setattr(algebroid, "_validated", set())
    monkeypatch.setattr(algebroid, "_vprod0", crashing)
    with pytest.raises(RuleOracleDivergence) as err:
        algebroid._validate_rules(V)
    on = ", ".join(f"({u!r}, {v!r})" for u, v in last.pairs.values())
    assert str(err.value) == f"the check of {on} raised KeyError('boom')"
    assert isinstance(err.value.__cause__, KeyError)
    assert V not in algebroid._validated


def counting_engine(monkeypatch):
    """Count the engine products _validate_rules runs, by product index."""
    calls = []
    engine = algebroid.nproduct

    def counted(a, n, b):
        calls.append(n)
        return engine(a, n, b)

    monkeypatch.setattr(algebroid, "_validated", set())
    monkeypatch.setattr(algebroid, "nproduct", counted)
    return calls


@pytest.mark.parametrize("variables", [V, ("y1", "y2", "y3")])
def test_oracle_check_runs_both_products_on_every_sample(monkeypatch, variables):
    # 10 field rows and 12 mixed field/form rows, each through _(1) then _(0)
    calls = counting_engine(monkeypatch)
    algebroid._validate_rules(variables)
    assert calls == [1, 0] * 22
    assert variables in algebroid._validated


def test_oracle_check_reaches_the_last_sample(monkeypatch):
    # the last row holds the last pairwise sample, the mixed pair
    # (k dy2, y2^2 frame_2), as its last pair
    k = ParamScalar.var("k")
    last = algebroid._battery(V)[-1]
    assert list(last.pairs.values())[-1] == (
        WeightOneElement.form("c", OneForm(V, {2: mono(0, 0, k)})),
        WeightOneElement.field("c", V, 2, mono(0, 2)))
    rule0 = algebroid._vprod0
    one = LaurentElement.constant(V, 1)

    def perturbed(u, v):
        out = rule0(u, v)
        if (u, v) == (last.left, last.right):
            out = out + WeightOneElement.form(u.chart, OneForm(V, {1: one}))
        return out

    calls = counting_engine(monkeypatch)
    monkeypatch.setattr(algebroid, "_vprod0", perturbed)
    with pytest.raises(RuleOracleDivergence,
                       match=r"_\(0\) .*oracle minus rule is -1\*T1\(y1\)$"):
        algebroid._validate_rules(V)
    assert calls == [1, 0] * 22
    assert V not in algebroid._validated


def _pairwise_samples(variables):
    """The battery as 228 separate section pairs, one engine product each."""
    n = len(variables)
    indices = sorted({1, n})
    exps = [(0,) * n]
    for i in indices:
        for e in (1, 2, -1):
            vec = [0] * n
            vec[i - 1] = e
            exps.append(tuple(vec))
    for e in (1, -1):
        vec = [0] * n
        vec[0], vec[-1] = e, 1
        exps.append(tuple(vec))
    k = ParamScalar.var("k")

    def frame(i, e, c=1):
        return WeightOneElement.field("c", variables, i, LaurentElement.monomial(variables, e, c))

    def form(l, e):
        return WeightOneElement.form(
            "c", OneForm(variables, {l: LaurentElement.monomial(variables, e, k)}))

    samples = [(frame(i, ea), frame(j, eb, k))
               for i in indices for j in indices for ea in exps[:5] for eb in exps]
    for i in indices:
        for l in indices:
            for idx, e in enumerate(exps[:6]):
                field, other = frame(i, e), form(l, exps[(idx + 1) % 6])
                samples += [(field, other), (other, field)]
    return samples


def _split_by_tag(x):
    """{tag: coefficient} of a Fock element: each term of each coefficient
    goes to its tag, the set of its parameters other than k, with the tag's
    parameters (each to the power 1) taken off."""
    parts: dict = {}
    for key, c in x._terms.items():
        for mono, a in c._terms.items() if type(c) is ParamScalar else [((), c)]:
            own = [(name, e) for name, e in mono if name != "k"]
            assert all(e == 1 for _, e in own), mono
            rest = tuple((name, e) for name, e in mono if name == "k")
            accumulate(parts.setdefault(frozenset(name for name, _ in own), {}).setdefault(key, {}),
                       rest, a)
    return {tag: x._new({key: ParamScalar._new(t) for key, t in terms.items()})
            for tag, terms in parts.items()}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_battery_rows_check_exactly_the_pairwise_samples(n):
    # the rows cover the 228 pairs and no others, and in each engine product
    # and each closed form of a row, a pair's tag has that pair's own product
    # as its coefficient, with no term left outside the pairs' tags
    variables = tuple(f"y{i}" for i in range(1, n + 1))
    rows = algebroid._battery(variables)
    covered = [pair for row in rows for pair in row.pairs.values()]
    samples = _pairwise_samples(variables)
    assert len(rows) == 22
    assert len(covered) == len(set(covered)) == 228
    assert set(covered) == set(samples) and len(samples) == 228
    alg = fock_algebra(variables)
    products = {
        "oracle _(1)": lambda u, v: nproduct(embed(u, alg), 1, embed(v, alg)),
        "oracle _(0)": lambda u, v: nproduct(embed(u, alg), 0, embed(v, alg)),
        "rule _(1)": lambda u, v: alg.from_laurent(algebroid._vprod1(u, v)),
        "rule _(0)": lambda u, v: embed(algebroid._vprod0(u, v), alg),
    }
    for row in rows:
        for name, product in products.items():
            split = _split_by_tag(product(row.left, row.right))
            assert set(split) <= set(row.pairs), name
            for tag, pair in row.pairs.items():
                assert split.get(tag, alg.zero()) == product(*pair), (name, pair)


@pytest.mark.parametrize("rule", ["_vprod1", "_vprod0"])
def test_divergence_names_the_one_pair_it_is_confined_to(monkeypatch, rule):
    # the closed form gains a term bilinear in one component of each operand,
    # which among the 228 samples only one pair carries: for _(1) frame_1
    # against k y1^-1 y2 frame_2 (a field row), for _(0) y1^-1 frame_2
    # against k y2 dy1 (a mixed row)
    k = ParamScalar.var("k")
    left, right, pair = {
        "_vprod1": ((("d", 1), (0, 0)), (("d", 2), (-1, 1)),
                    (WeightOneElement.field("c", V, 1, mono(0, 0)),
                     WeightOneElement.field("c", V, 2, mono(-1, 1, k)))),
        "_vprod0": ((("d", 2), (-1, 0)), (("y", 1), (0, 1)),
                    (WeightOneElement.field("c", V, 2, mono(-1, 0)),
                     WeightOneElement.form("c", OneForm(V, {1: mono(0, 1, k)})))),
    }[rule]
    closed = getattr(algebroid, rule)

    def coefficient(section, key_exp):
        key, exp = key_exp
        return section._terms.get(key, LaurentElement(V))._terms.get(exp, 0)

    def perturbed(u, v):
        c = LaurentElement.constant(V, coefficient(u, left) * coefficient(v, right))
        out = closed(u, v)
        return out + c if rule == "_vprod1" else out + WeightOneElement.form(
            u.chart, OneForm(V, {1: c}))

    assert [p for p in _pairwise_samples(V) if perturbed(*p) != closed(*p)] == [pair]
    monkeypatch.setattr(algebroid, "_validated", set())
    monkeypatch.setattr(algebroid, rule, perturbed)
    with pytest.raises(RuleOracleDivergence) as err:
        algebroid._validate_rules(V)
    m = rule[-1]
    assert str(err.value).startswith(
        f"_({m}) rule/oracle divergence on ({pair[0]!r}, {pair[1]!r}): oracle minus rule is ")


@pytest.mark.parametrize("variables", [V, ("y1", "y2", "y3"), ("y1", "y2", "y3", "y4")])
def test_oracle_check_tells_the_operands_of_a_mixed_pair_apart(monkeypatch, variables):
    # d(g) f for d(f) g where a frame field acts on a form: the swap passes
    # unseen when the field and the form carry the same monomial
    source = inspect.getsource(algebroid._vprod0)
    rule = "if j == i:\n                    add_form(f, g)"
    assert source.count(rule) == 2
    namespace = dict(vars(algebroid))
    exec(source.replace(rule, "if j == i:\n                    add_form(g, f)", 1), namespace)
    monkeypatch.setattr(algebroid, "_validated", set())
    monkeypatch.setattr(algebroid, "_vprod0", namespace["_vprod0"])
    with pytest.raises(RuleOracleDivergence, match=r"^_\(0\) rule/oracle divergence"):
        algebroid._validate_rules(variables)


@pytest.mark.parametrize("variables", [("y1", "y2", "y3"), ("y1", "y2", "y3", "y4")])
def test_oracle_check_covers_the_last_variable(monkeypatch, variables):
    # a rule whose d(f) forgets every coordinate past y2 diverges once the
    # battery's monomials and components reach the last variable
    source = inspect.getsource(algebroid._vprod0)
    loop = "for l in range(1, n + 1):"
    assert source.count(loop) == 1
    namespace = dict(vars(algebroid))
    exec(source.replace(loop, "for l in range(1, min(n, 2) + 1):"), namespace)
    monkeypatch.setattr(algebroid, "_validated", set())
    monkeypatch.setattr(algebroid, "_vprod0", namespace["_vprod0"])
    with pytest.raises(RuleOracleDivergence, match=r"^_\(0\) rule/oracle divergence"):
        algebroid._validate_rules(variables)
    assert variables not in algebroid._validated
