"""Acceptance gate: one check per shipped guarantee, one printed line each."""

import random
import time
from fractions import Fraction

from vertexalg.algebroid import (
    WeightOneElement,
    embed,
    fock_algebra,
    morphism_check,
    oracle_vprod,
    vprod,
)
from vertexalg.freefield import (
    FreeFieldAlgebra,
    axiom_defect,
    conformal_invariance_defect,
    nproduct,
    random_element,
    translate,
)
from vertexalg.geometry import GluingForm, conformal_glue_check, transition
from vertexalg.laurent import LaurentElement, OneForm, exponent_vectors
from vertexalg.scalar import ParamScalar
from vertexalg.veronese import (
    build_model,
    classify_admissible,
    derivations,
    gl2_chart_images,
    higher_witness,
    omega_membership,
    solve_charge,
)

V = ("y1", "y2")


def report(index: int, name: str, ok: bool) -> None:
    print(f"criterion {index} ({name}): {'pass' if ok else 'fail'}")
    assert ok, f"criterion {index} ({name}) failed"


def test_criterion_1_unique_charge():
    ok = True
    for N in (2, 3, 4, 5, 6):
        start = time.monotonic()
        res = solve_charge(build_model(2, N))
        elapsed = time.monotonic() - start
        ok = ok and res.status == "unique" and res.charge == Fraction(N + 1)
        ok = ok and elapsed < 10.0
    report(1, "unique quantization charge k = N + 1", ok)


def test_criterion_2_admissible_gluing():
    start = time.monotonic()
    ok = True
    for N in (2, 3):
        survivors = classify_admissible(build_model(2, N), 2 * N)
        ok = ok and survivors == [GluingForm.basis(1, 1)]
    ok = ok and time.monotonic() - start < 30.0
    report(2, "only the w[1,1] gluing line is admissible", ok)


def test_criterion_3_gl2_levels():
    k = ParamScalar.var("k")
    rep = morphism_check(gl2_chart_images(k))
    ok = rep.status == "pass" and rep.levels == (-k - 1, k - 1)
    for N in (2, 3):
        rep = morphism_check(gl2_chart_images(N + 1))
        ok = ok and rep.status == "pass"
        ok = ok and rep.levels == (-N - 2, N)
    report(3, "gl_2 morphism levels (-k-1, k-1) and (-N-2, N)", ok)


def test_criterion_4_gln_levels():
    ok = True
    for n in (2, 3, 4):
        variables = tuple(f"y{i}" for i in range(1, n + 1))
        images = {f"E{a}{b}": WeightOneElement.field(
            "affine", variables, b, LaurentElement.coordinate(variables, a))
            for a in range(1, n + 1) for b in range(1, n + 1)}
        rep = morphism_check(images)
        ok = ok and rep.status == "pass"
        ok = ok and rep.levels == (-1, -1)
    report(4, "tautological gl_n levels (-1, -1)", ok)


def test_criterion_5_virasoro():
    ok = True
    for n in (1, 2, 3, 4):
        alg = FreeFieldAlgebra(tuple(f"y{i}" for i in range(1, n + 1)), 4)
        L = alg.virasoro_element()
        ok = ok and nproduct(L, 0, L) == translate(L)
        ok = ok and nproduct(L, 1, L) == L.scale(2)
        ok = ok and nproduct(L, 2, L).is_zero()
        ok = ok and nproduct(L, 3, L) == alg.vacuum().scale(n)
    report(5, "Virasoro relations for the conformal element", ok)


def test_criterion_6_conformal_gluing():
    ok = all(conformal_glue_check(om) for om in (
        GluingForm.basis(1, 1),
        GluingForm.basis(1, 2),
        GluingForm.basis(2, 1, 2),
    ))
    report(6, "conformal element survives twisted gluing", ok)


def test_criterion_7_conformal_invariance():
    ok = True
    for n in (1, 2, 3):
        variables = tuple(f"y{i}" for i in range(1, n + 1))
        alg = fock_algebra(variables, 4)
        exps = [e for total in range(6) for e in exponent_vectors(total, n)]
        for exp in exps:
            f = LaurentElement.monomial(variables, exp)
            for i in range(1, n + 1):
                xi = embed(WeightOneElement.field("U1", variables, i, f), alg)
                if not conformal_invariance_defect(xi).is_zero():
                    ok = False
    report(7, "polynomial fields preserve the conformal class", ok)


def test_criterion_8_higher_witness():
    ok = True
    for n, N in ((3, 2), (3, 3), (4, 2)):
        witness, verdict = higher_witness(build_model(n, N))
        ok = ok and verdict == "non-quantizable" and not witness.field_part
        if n == 3:
            vs = witness.variables
            want = OneForm(vs, {
                3: LaurentElement.monomial(vs, (0, N - 1, 0)),
                2: LaurentElement.monomial(vs, (0, N - 2, 1), N - 2),
            })
            ok = ok and witness.form_part == want
    report(8, "higher models are non-quantizable with the stated witness", ok)


def test_criterion_9_membership_table():
    m = build_model(2, 3)
    ok = not omega_membership(OneForm(V, {1: LaurentElement.monomial(V, (0, 2))}), m)
    ok = ok and not omega_membership(
        OneForm(V, {1: LaurentElement.monomial(V, (1, 1))}), m)
    from vertexalg.laurent import de_rham
    for g in m.generators:
        ok = ok and omega_membership(de_rham(m.generator_element(g)), m)
    report(9, "membership table for the degree-3 model", ok)


def test_criterion_10_derivations():
    ok = True
    for N in (2, 3, 4):
        rep = derivations(build_model(2, N), 0)
        ok = ok and rep.dimension == 4 and rep.gl_generates
    report(10, "degree-0 derivations: dimension 4, gl_2-generated", ok)


def test_criterion_11_property_suites():
    start = time.monotonic()
    alg = FreeFieldAlgebra(V, 7)
    rng = random.Random(2026)

    ok = True
    for _ in range(200):
        a, b = random_element(alg, rng, 2), random_element(alg, rng, 2)
        c = alg.coordinate(rng.randint(1, 2))
        n = rng.randint(-1, 1)
        ok = ok and axiom_defect("translation", a, n, b).is_zero()
        ok = ok and axiom_defect("skew", a, n, b).is_zero()
        ok = ok and axiom_defect("jacobi", a, rng.randint(0, 1), b, n, c).is_zero()

    def rand_section():
        f = LaurentElement.monomial(
            V, (rng.randint(-1, 2), rng.randint(-1, 2)), rng.randint(-3, 3))
        v = WeightOneElement.field("overlap", V, rng.randint(1, 2), f)
        if rng.random() < 0.5:
            g = LaurentElement.monomial(
                V, (rng.randint(-1, 1), rng.randint(-1, 1)), rng.randint(-3, 3))
            v = v + WeightOneElement.form("overlap", OneForm(V, {rng.randint(1, 2): g}))
        return v

    for _ in range(100):
        u, v = rand_section(), rand_section()
        ok = ok and vprod(u, 1, v) == oracle_vprod(u, 1, v)
        ok = ok and vprod(u, 0, v) == oracle_vprod(u, 0, v)

    om = GluingForm.basis(1, 1, ParamScalar.var("k")) \
        + GluingForm.basis(2, 1, 2)
    for _ in range(100):
        u, v = rand_section(), rand_section()
        ok = ok and transition(transition(u, om), om, "2->1") == u
        ok = ok and transition(vprod(u, 0, v), om) == \
            vprod(transition(u, om), 0, transition(v, om))
        ok = ok and vprod(u, 1, v) == vprod(transition(u, om), 1, transition(v, om))
    ok = ok and time.monotonic() - start < 120.0
    report(11, "seeded anti-regression property suites", ok)
