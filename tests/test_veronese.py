import random
from fractions import Fraction

import pytest

from vertexalg.errors import InvalidInput
from vertexalg.geometry import GluingForm
from vertexalg.laurent import LaurentElement, OneForm, de_rham, zn_weight
from vertexalg.scalar import ParamScalar
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


def test_membership_generator_differentials():
    for N in (2, 3):
        m = build_model(2, N)
        for g in m.generators:
            assert omega_membership(de_rham(m.generator_element(g)), m)


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
    gens = [m.generator_element(g) for g in m.generators]
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
    one = ParamScalar.of(1)
    assert d.form_part == OneForm(V, {1: mono(0, 1).scale(one - k), 2: mono(1, 0, -2)})


def test_relation_defect_specialized():
    # at the solved charge the defect is an exact differential of a generator
    m = build_model(2, 2)
    d = relation_defect(m, 0, ("E12", "E22"), 3)
    assert d.form_part == de_rham(mono(1, 1)).scale(-2)
    assert omega_membership(d.form_part, m)


def test_relation_defect_all_instances_at_charge():
    for N in (2, 3):
        m = build_model(2, N)
        for pair in (("E12", "E22"), ("E11", "E21")):
            for r in range(N):
                d = relation_defect(m, r, pair, N + 1)
                assert not d.field_part
                assert omega_membership(d.form_part, m), (N, pair, r)
                wt = zn_weight(d.form_part, N)
                assert wt in (0, "inhomogeneous") or d.form_part.is_zero()


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
                    assert sol.assignment["k"] == ParamScalar.of(N + 1)


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
    for N in (2, 3, 4):
        m = build_model(2, N)
        rep = derivations(m, 0)
        assert rep.dimension == 4
        assert rep.gl_generates


def test_derivations_positive_degree():
    m = build_model(2, 3)
    rep = derivations(m, 3)
    assert rep.gl_generates
    assert rep.dimension > 0


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
        assert zn_weight(witness.form_part, N) == 0
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
