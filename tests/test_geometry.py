import random

import pytest

from vertexalg.algebroid import WeightOneElement, vprod
from vertexalg.errors import InvalidInput, VariableMismatch
from vertexalg.geometry import (
    GluingForm,
    conformal_glue_check,
    extend_section,
    invariant_sections,
    regular_on,
    transition,
)
from vertexalg.laurent import LaurentElement, OneForm
from vertexalg.scalar import ParamScalar

V = ("y1", "y2")
C = "overlap"
K = ParamScalar.var("k")


def mono(e1, e2, c=1):
    return LaurentElement.monomial(V, (e1, e2), c)


def fld(i, f):
    return WeightOneElement.field(C, V, i, f)


def frm(comps):
    return WeightOneElement.form(C, OneForm(V, comps))


def w11(coeff=1):
    return GluingForm.basis(1, 1, coeff)


def test_transition_frame_field():
    out = transition(fld(1, LaurentElement.constant(V, 1)), w11(K))
    assert out.field_part == {1: LaurentElement.constant(V, 1)}
    assert out.form_part == OneForm(V, {2: mono(-1, -1, 1).scale(K)})


def test_transition_contracts_into_the_gluing_form():
    # frame index 2 alone: iota(D2) k dy1^dy2/(y1 y2) = -k dy1/(y1 y2)
    d2 = fld(2, LaurentElement.constant(V, 1))
    assert transition(d2, w11(K), "1->2") == d2 + frm({1: mono(-1, -1, 1).scale(-K)})
    assert transition(d2, w11(K), "2->1") == d2 + frm({1: mono(-1, -1, 1).scale(K)})
    # y2 D1 + 3 y1 D2 into (k/(y1 y2) + 2/(y1^2 y2)) dy1^dy2
    om = w11(K) + GluingForm.basis(2, 1, 2)
    v = fld(1, mono(0, 1)) + fld(2, mono(1, 0, 3))
    contraction = frm({2: mono(-1, 0, 1).scale(K) + mono(-2, 0, 2),
                       1: mono(0, -1, 1).scale(-3 * K) + mono(-1, -1, -6)})
    assert transition(v, om, "1->2") == v + contraction
    assert transition(v, om, "2->1") == v - contraction


def test_transition_relabels_the_chart():
    v = WeightOneElement.field("U1", V, 1, mono(0, 1)) \
        + WeightOneElement.form("U1", OneForm(V, {2: mono(1, -1)}))
    image = transition(v, w11(K))
    assert image.chart == "U2"
    assert image == WeightOneElement("U2", V, v.field_part,
                                     v.form_part + OneForm(V, {2: mono(-1, 0, 1).scale(K)}))
    back = transition(image, w11(K), "2->1")
    assert back.chart == "U1" and back == v
    overlap = fld(1, mono(0, 1))
    assert transition(overlap, w11(K)).chart == C


def test_transition_refuses_a_contradictory_direction():
    for chart, wrong in (("U1", "2->1"), ("U2", "1->2")):
        v = WeightOneElement.field(chart, V, 1, mono(0, 1))
        with pytest.raises(InvalidInput):
            transition(v, w11(K), wrong)
    with pytest.raises(InvalidInput):
        transition(fld(1, mono(0, 1)), w11(K), "1->3")
    z = ("y1", "z")
    with pytest.raises(VariableMismatch):
        transition(WeightOneElement.field("U1", z, 1, LaurentElement.constant(z, 1)), w11(K))
    # the matching direction is the default, and an overlap takes either
    u1 = WeightOneElement.field("U1", V, 1, mono(0, 1))
    assert transition(u1, w11(K), "1->2") == transition(u1, w11(K))
    overlap = fld(1, mono(0, 1))
    assert transition(transition(overlap, w11(K), "2->1"), w11(K), "1->2") == overlap


def test_transition_pure_form_fixed():
    v = frm({1: mono(-1, 0)})
    assert transition(v, w11(K)) == v


def test_transition_euler_component():
    out = transition(fld(1, mono(1, 0)), w11(K))
    assert out.form_part == OneForm(V, {2: mono(0, -1, 1).scale(K)})


def test_transition_round_trip_random():
    rng = random.Random(47)
    for _ in range(100):
        f = mono(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-3, 3))
        v = fld(rng.randint(1, 2), f) + frm({rng.randint(1, 2): f})
        om = GluingForm({(rng.randint(1, 3), rng.randint(1, 3)): rng.randint(-2, 2)})
        assert transition(transition(v, om), om, "2->1") == v


def test_transition_preserves_products_random():
    rng = random.Random(53)
    om = w11(K) + GluingForm.basis(2, 1, 2)
    for _ in range(50):
        u = fld(rng.randint(1, 2), mono(rng.randint(-1, 2), rng.randint(-1, 2), rng.randint(-2, 2)))
        v = fld(rng.randint(1, 2), mono(rng.randint(-1, 2), rng.randint(-1, 2), rng.randint(-2, 2)))
        if rng.random() < 0.4:
            v = v + frm({rng.randint(1, 2): mono(rng.randint(-1, 1), rng.randint(-1, 1))})
        assert transition(vprod(u, 0, v), om) == vprod(transition(u, om), 0, transition(v, om))
        assert vprod(u, 1, v) == vprod(transition(u, om), 1, transition(v, om))


def test_transition_fixes_symbol():
    v = fld(1, mono(0, 1))
    assert transition(v, w11(K)).field_part == v.field_part


def test_regular_on():
    pole1 = frm({1: mono(-1, 0)})  # T(y2)-style pole along y1 = 0
    assert regular_on(pole1, "U1")
    assert not regular_on(pole1, "U2")
    both = fld(1, mono(0, 1))
    assert regular_on(both, "U1") and regular_on(both, "U2")
    deep = frm({2: mono(-1, -2)})
    assert not regular_on(deep, "U1")
    assert not regular_on(deep, "U2")
    deep2 = frm({2: mono(0, -2)})
    assert regular_on(deep2, "U2") and not regular_on(deep2, "U1")


def test_regular_on_refuses_an_unknown_chart():
    with pytest.raises(InvalidInput):
        regular_on(fld(1, mono(0, 1)), "overlap")


def test_extend_section_yields_global_section():
    v = fld(1, mono(0, 1))  # y2 (x) frame_1
    out = extend_section(v, w11(K))
    assert out is not None
    assert out == v + frm({2: mono(-1, 0, -1).scale(K)})
    assert regular_on(out, "U1")
    assert regular_on(transition(out, w11(K)), "U2")


def test_extend_section_from_u2():
    v = WeightOneElement.field("U2", V, 2, mono(1, 0))  # y1 (x) frame_2 on U2
    out = extend_section(v, w11(K))
    assert out == v + WeightOneElement.form("U2", OneForm(V, {1: mono(0, -1, -1).scale(K)}))
    assert regular_on(out, "U2")
    assert regular_on(transition(out, w11(K)), "U1")
    assert extend_section(WeightOneElement.field("U2", V, 2, mono(0, 0)), w11(K)) is None


def test_extend_section_trivial_correction():
    v = fld(2, mono(1, 0))  # y1 (x) frame_2
    out = extend_section(v, w11(K))
    assert out == v


def test_extend_section_obstruction():
    v = fld(1, mono(0, 1))
    assert extend_section(v, GluingForm.basis(1, 2)) is None


def test_invariant_sections_degree0():
    secs = invariant_sections(0, 2)
    got = {(i, exp) for s in secs for i, f in s.field_part.items()
           for exp in f.terms}
    assert got == {(1, (1, 0)), (1, (0, 1)), (2, (1, 0)), (2, (0, 1))}
    assert invariant_sections(1, 2) == []


def test_conformal_glue_check():
    assert conformal_glue_check(w11(K))
    assert conformal_glue_check(GluingForm.basis(2, 1, 2))
    assert conformal_glue_check(GluingForm())
    assert conformal_glue_check(GluingForm.basis(1, 2))
