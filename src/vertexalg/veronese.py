"""Cone-of-monomials models and their quantization verifiers.

A model packages the invariant subring of a polynomial ring generated by all
degree-N monomials with its binomial relations, by one rule for every n.  The
generators x0, x1, ... are the degree-N exponent vectors in lexicographically
decreasing order (for n = 2, x_j maps to y1^(N-j) y2^j).  Each generator
pair is related to the first pair with the same product, which joins every
two pairs of equal product.  A derivation constraint is linear in the
relation, so any list that joins them puts the same row space on the
derivation unknowns, and the rank that certifies the derivation basis
depends only on that row space.  On top sit the exact checkers: graded
membership of one-forms in the span of generator differentials, the relation
defects produced by quantum products on the twisted punctured plane, the
charge solver that pins the unique gluing multiple, the admissible-gluing
classification by section extension, the gl_2 chart sections, the graded
derivations, whose basis is the coordinate fields certified by a rank, and
the higher-dimensional obstruction witness.

The span of the generator differentials is graded by the torus multidegree
in Z^n: m*dx_g has multidegree m + exp(x_g), and a coordinate y^e dy_i has
e + e_i.  The span matrix is therefore block-diagonal by multidegree, and
membership builds only the blocks its target touches.

The identity current convention: the trace element of gl_2 acts on the model
through N times the Euler derivation, the degree-0 derivation that maps every
generator x_j to itself; the factor N is a normalization choice.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from operator import sub
from types import MappingProxyType
from typing import NamedTuple

from .algebroid import WeightOneElement, _validate_rules, embed, extract, fock_algebra
from .errors import InvalidInput, VertexAlgError
from .freefield import FreeFieldAlgebra, FreeFieldElement, nproduct, translate
from .geometry import GluingForm, V2, extend_section, invariant_sections
from .laurent import LaurentElement, OneForm, exponent_vectors, homogeneous_degree
from .scalar import (
    RHS,
    ParamScalar,
    Scalar,
    accumulate,
    constant_value,
    exact,
    row_reduce,
    solve_linear_system,
)

ExpVec = tuple[int, ...]


class VeroneseModel:
    """The degree-N model on y1..yn, generators from `_generator_exponents`."""

    def __init__(self, n: int, N: int, degree_bound: int):
        self.n = n
        self.N = N
        self.degree_bound = degree_bound
        self.variables = tuple(f"y{i}" for i in range(1, n + 1))
        self.generators = _generator_exponents(n, N)

    @functools.cached_property
    def relations(self) -> list[tuple[tuple[str, str], tuple[str, str]]]:
        """The binomial syzygies x_u x_v = x_w x_z, for every n: each pair
        u <= v is related to the first pair with the same product.  Built and
        checked against the generator map on first read; membership and the
        witness never read them."""
        canonical = _generator_exponents(self.n, self.N)
        by_product: dict[ExpVec, list[tuple[str, str]]] = {}
        for (u, eu), (v, ev) in itertools.combinations_with_replacement(canonical.items(), 2):
            by_product.setdefault(tuple(x + y for x, y in zip(eu, ev)), []).append((u, v))
        relations = [(pairs[0], other) for pairs in by_product.values()
                     for other in pairs[1:]]
        gens = self.generators
        for (u, v), (w, z) in relations:
            lhs = tuple(x + y for x, y in zip(gens[u], gens[v]))
            rhs = tuple(x + y for x, y in zip(gens[w], gens[z]))
            if lhs != rhs:
                raise VertexAlgError("relation is not a syzygy of the generator map")
        return relations


class ChargeResult(NamedTuple):
    status: str  # "unique" | "unconstrained" | "no_solution"
    charge: Fraction | None
    admissible_gluing: GluingForm | None


def _generator_exponents(n: int, N: int) -> dict[str, ExpVec]:
    """x0, x1, ... are the degree-N exponent vectors, lexicographically
    decreasing (the order exponent_vectors yields)."""
    return {f"x{j}": e for j, e in enumerate(exponent_vectors(N, n))}


def build_model(n: int, N: int, degree_bound: int | None = None) -> VeroneseModel:
    """All degree-N monomials as generators; their binomial syzygies are
    built on first read of `relations`."""
    if n < 2 or N < 1:
        raise InvalidInput("need n >= 2 and N >= 1")
    return VeroneseModel(n, N, 2 * N + 2 if degree_bound is None else degree_bound)


# -- graded membership in the span of generator differentials ----------------


def membership_residuals(omega: OneForm, model: VeroneseModel) -> list[Scalar]:
    """Residual conditions for omega to lie in the span, over degree-matched
    invariant monomials, of the generator differentials.

    The span matrix is rational and is eliminated exactly; whatever cannot be
    matched is returned as a list of scalar conditions (possibly involving
    parameters), so an empty-or-zero residual list means membership.

    Only the columns in omega's multidegree blocks are built.  The column
    m*dx_g has multidegree m + exp(x_g) and the coordinate y^e dy_i has
    e + e_i, so the span matrix is block-diagonal by multidegree; a block
    omega does not touch has a zero right-hand side and never mixes with the
    others in the elimination, so dropping it leaves the residual list the
    same, value for value and in the same order.
    """
    degree = homogeneous_degree(omega)
    if degree is None:
        return []
    if degree > model.degree_bound:
        raise InvalidInput(f"degree {degree} exceeds model bound {model.degree_bound}")
    n, N = model.n, model.N
    target = {(i, exp): c for i, g in omega.terms.items() for exp, c in g.terms.items()}
    blocks = {tuple(e + (k == i - 1) for k, e in enumerate(exp)) for i, exp in target}
    rows: dict[tuple[int, ExpVec], dict] = {c: {RHS: b} for c, b in target.items()}
    if degree >= N and (degree - N) % N == 0:
        j = 0
        for m in exponent_vectors(degree - N, n):
            for gexp in model.generators.values():
                block = tuple(a + b for a, b in zip(m, gexp))
                if block not in blocks:
                    continue
                # m*dx_g = sum_i g_i y^(m + g - e_i) dy_i
                for i, gi in enumerate(gexp, 1):
                    if gi:
                        exp = block[:i - 1] + (block[i - 1] - 1,) + block[i:]
                        rows.setdefault((i, exp), {})[j] = gi
                j += 1
    return row_reduce(rows.values()).residuals


def omega_membership(omega: OneForm, model: VeroneseModel) -> bool:
    """Exact graded test: is omega a combination of invariant-monomial
    multiples of the generator differentials?"""
    return not membership_residuals(omega, model)


# -- the twisted punctured-plane gl_2 sections --------------------------------


def gl2_chart_images(k) -> dict[str, WeightOneElement]:
    """Sections on the chart where y1 is invertible, gluing multiple k."""
    k = exact(k)
    # canonical terms: a one-form component at k = 0 is left out
    section, ring = WeightOneElement("U1", V2)._new, LaurentElement(V2)._new
    y1, y2 = ring({(1, 0): 1}), ring({(0, 1): 1})
    e21, e22 = {("d", 1): y2}, {("d", 2): y2}
    if k:
        e21[("y", 2)], e22[("y", 1)] = ring({(-1, 0): -k}), ring({(-1, 0): k})
    return {"E12": section({("d", 2): y1}), "E21": section(e21),
            "E11": section({("d", 1): y1}), "E22": section(e22)}


RELATION_PAIRS = (("E12", "E22"), ("E11", "E21"))


@functools.cache
def _embedded_chart_images(k: Scalar) -> MappingProxyType:
    """The gl_2 chart images at multiple k, embedded in the shared algebra;
    built once per value of k and kept as long as that algebra."""
    alg = fock_algebra(V2, 3)
    return MappingProxyType({name: embed(v, alg) for name, v in gl2_chart_images(k).items()})


def _relation_lift(alg: FreeFieldAlgebra, first: tuple[ExpVec, FreeFieldElement],
                   second: tuple[ExpVec, FreeFieldElement]) -> WeightOneElement:
    """The quantum lift (y^e1)_(-1) s1 - (y^e2)_(-1) s2 of the module
    relation y^e1 s1 = y^e2 s2 between embedded sections, extracted on U1.

    The one check site of both Fock verdicts: the kernel is checked against
    the closed forms (`_validate_rules`) before the first product, and the
    vector-field parts must cancel exactly, or the module relation broke.
    """
    _validate_rules(alg.variables)
    (e1, s1), (e2, s2) = first, second
    lift = (nproduct(alg.from_laurent(LaurentElement.monomial(alg.variables, e1)), -1, s1)
            - nproduct(alg.from_laurent(LaurentElement.monomial(alg.variables, e2)), -1, s2))
    out = extract(lift, "U1")
    if out.field_part:
        raise VertexAlgError("relation lift has a vector-field component; "
                             "the module relation broke")
    return out


def relation_defect(model: VeroneseModel, r: int,
                    pair: tuple[str, str] = ("E12", "E22"),
                    k=None) -> WeightOneElement:
    """Quantum lift of the degree-N module relation indexed by r.

    Evaluates (y1^r y2^(N-r))_(-1) applied to the first section minus
    (y1^(r+1) y2^(N-r-1))_(-1) applied to the second by `_relation_lift`,
    a pure one-form whose membership is the quantization condition.  The
    chart images are embedded once per value of k and reused by every
    (pair, r).
    """
    if model.n != 2:
        raise InvalidInput("relation defects are defined for the two-variable model")
    if not 0 <= r < model.N:
        raise InvalidInput(f"r must satisfy 0 <= r < N, got {r}")
    if pair not in RELATION_PAIRS:
        raise InvalidInput(f"pair must be one of {RELATION_PAIRS}")
    if k is None:
        k = ParamScalar.var("k")
    images = _embedded_chart_images(exact(k))
    N = model.N
    return _relation_lift(fock_algebra(V2, 3), ((r, N - r), images[pair[0]]),
                          ((r + 1, N - r - 1), images[pair[1]]))


# -- classification and the charge solver -------------------------------------


def classify_admissible(model: VeroneseModel,
                        degree_bound: int = 4) -> list[GluingForm]:
    """Equivariant gluing basis lines under which every invariant-monomial
    multiple of a linear coordinate field extends to a global section.

    Candidates are the basis forms with index sum a + b at most the bound and
    a + b - 2 divisible by N; a candidate survives when extend_section
    succeeds for every monomial field of invariant internal degree up to the
    bound.
    """
    if model.n != 2:
        raise InvalidInput("classification runs on the two-variable model")
    N = model.N
    candidates = [GluingForm.basis(a, b)
                  for a in range(1, degree_bound)
                  for b in range(1, degree_bound + 1 - a)
                  if (a + b - 2) % N == 0]
    return [omega for omega in candidates
            if all(extend_section(v, omega) is not None
                   for d in range(0, degree_bound + 1, N)
                   for v in invariant_sections(d, N))]


def solve_charge(model: VeroneseModel) -> ChargeResult:
    """Pin the gluing line by classification, then solve the membership
    conditions of every relation defect for the multiple k."""
    if model.n != 2:
        raise InvalidInput("the charge solver runs on the two-variable model")
    survivors = classify_admissible(model)
    if len(survivors) != 1:
        raise VertexAlgError(f"expected one admissible gluing line, got {survivors}")
    line = survivors[0]
    k = ParamScalar.var("k")
    conditions: list[Scalar] = []
    for pair in RELATION_PAIRS:
        for r in range(model.N):
            defect = relation_defect(model, r, pair, k)
            conditions.extend(membership_residuals(defect.form_part, model))
    sol = solve_linear_system(conditions, ["k"])
    if sol.status == "unique":
        return ChargeResult("unique", constant_value(sol.assignment["k"]), line)
    if sol.status == "underdetermined":
        return ChargeResult("unconstrained", None, line)
    return ChargeResult("no_solution", None, line)


# -- graded derivations --------------------------------------------------------


class DerivationReport(NamedTuple):
    degree: int
    dimension: int
    monomials: list[ExpVec]
    basis: list[dict[int, LaurentElement]]
    gl_generates: bool


def _character_blocks(model: VeroneseModel, monos: list[ExpVec]) -> dict[ExpVec, list[str]]:
    """The unknowns (g, m), the coefficient of y^m in the image of x_g, by
    torus character chi = m - exp(x_g): block chi lists, in generator order,
    the generators g with chi + exp(x_g) >= 0, one column each."""
    blocks: dict[ExpVec, list[str]] = {}
    for g, gexp in model.generators.items():
        for m in monos:
            blocks.setdefault(tuple(map(sub, m, gexp)), []).append(g)
    return blocks


def _block_fields(model: VeroneseModel, names: list[str]) -> list[int]:
    """The directions b (0-based) whose coordinate fields y^(chi + e_b) d/dy_b
    are a basis of the derivations of a block with generators `names`.
    Relation (u, v) ~ (w, z) gives the row e_u + e_v - e_w - e_z, because its
    four terms share the block's character.

    Z_N acting by scalars has no pseudo-reflections, so every derivation is
    an invariant vector field (Schlessinger, Invent. Math. 14, 1971), and in
    character chi the fields y^(chi + e_b) d/dy_b with chi + e_b >= 0 span
    the block.  The field of direction b maps x_g to
    exp(x_g)_b y^(chi + exp(x_g)), so it stays in the block exactly when the
    block holds every generator with exp_b >= 1 (take y_b^N and
    y_b y_c^(N-1)); its vector {x_g: exp(x_g)_b} reads the columns, not chi,
    so one call serves every block with the same generators.  Each kept
    field must vanish on every row.  The fields are independent, since only
    direction b is nonzero on y_b^N, so fields in the kernel as many as its
    dimension, len(names) - rank, are a basis of it, and a rank that lost or
    gained a row is refused."""
    local = {g: col for col, g in enumerate(names)}
    rows = []
    for (u, v), (w, z) in model.relations:
        row: dict[int, int] = {}
        for g, sign in ((u, 1), (v, 1), (w, -1), (z, -1)):
            col = local.get(g)
            if col is not None:
                accumulate(row, col, sign)
        if row:
            rows.append(row)
    gens = model.generators
    directions = []
    for b in range(model.n):
        if not all(g in local for g, gexp in gens.items() if gexp[b]):
            continue
        vec = {local[g]: gexp[b] for g, gexp in gens.items() if gexp[b]}
        if any(sum(x * vec.get(col, 0) for col, x in row.items()) for row in rows):
            raise VertexAlgError("coordinate-field image violates a relation")
        directions.append(b)
    if len(names) - row_reduce(rows).rank != len(directions):
        raise VertexAlgError("the nullity of the block disagrees with the count of "
                             "coordinate fields")
    return directions


def derivations(model: VeroneseModel, degree: int) -> DerivationReport:
    """Basis of the degree-d derivations of the model ring, each as its
    vector field {b: component of d/dy_b}, plus a report on whether
    invariant multiples of the linear coordinate fields span it.

    A derivation's torus character chi = m - exp(x_g) is shared by the four
    terms of every relation, so the space splits into one small block per
    character (`_character_blocks`).  Each distinct generator tuple is
    certified once (`_block_fields`): its coordinate fields satisfy every
    relation row and are as many as the nullity, so they are its basis.
    Each basis field is {b: y^(chi + e_b)}, built from canonical terms by
    `LaurentElement._new` with the int 1 as its coefficient.  The field
    multiples m * y_a d/dy_b generate when every chi + e_b is nonzero: the
    fields d/dy_b themselves (chi = -e_b) are not such multiples."""
    n, N = model.n, model.N
    if abs(degree) > model.degree_bound:
        raise InvalidInput(f"degree {degree} exceeds model bound {model.degree_bound}")
    if degree % N != 0 or N + degree < 0:
        return DerivationReport(degree, 0, [], [], True)
    monos = list(exponent_vectors(N + degree, n))
    zero = LaurentElement(model.variables)
    basis = []
    generates = True
    solves: dict[tuple[str, ...], list[int]] = {}
    for chi, names in _character_blocks(model, monos).items():
        key = tuple(names)
        if key not in solves:
            solves[key] = _block_fields(model, names)
        for b in solves[key]:
            shifted = chi[:b] + (chi[b] + 1,) + chi[b + 1:]
            basis.append({b + 1: zero._new({shifted: 1})})
            generates = generates and any(shifted)
    return DerivationReport(degree, len(basis), monos, basis, generates)


# -- the higher-dimensional obstruction witness --------------------------------


def higher_witness(model: VeroneseModel):
    """A one-form produced by quantum products that escapes the generator
    span, certifying that no quantization exists for n >= 3, N >= 2.

    Computes (x3 x2^(N-1))_(-1)(x1 applied to the first frame) minus
    (x3 x2^(N-2) x1)_(-1)(x2 applied to the first frame) by
    `_relation_lift`, checks it equals (T(x3 x2^(N-2)))_(-1) x2, and runs the
    graded membership test, which must fail.
    """
    if model.n < 3:
        raise InvalidInput("the witness needs at least three variables")
    if model.N < 2:
        raise InvalidInput("degree 1 gives a polynomial ring; nothing to witness")
    variables, N = model.variables, model.N
    alg = fock_algebra(variables)
    x1_d1, x2_d1 = (embed(WeightOneElement.field(
        "U1", variables, 1, LaurentElement.coordinate(variables, j)), alg) for j in (1, 2))
    rest = (0,) * (model.n - 3)
    witness = _relation_lift(alg, ((0, N - 1, 1) + rest, x1_d1),
                             ((1, N - 2, 1) + rest, x2_d1))
    display = nproduct(translate(alg.from_laurent(
        LaurentElement.monomial(variables, (0, N - 2, 1) + rest))), -1,
        alg.from_laurent(LaurentElement.coordinate(variables, 2)))
    if witness != extract(display, "U1"):
        raise VertexAlgError("witness does not match its closed form")
    if omega_membership(witness.form_part, model):
        raise VertexAlgError("witness lies in the generator span; no obstruction")
    return witness, "non-quantizable"
