"""Two-chart geometry of the punctured plane: twisted gluing and extension.

Charts: U1 where the first coordinate is invertible, U2 where the second is.
Gluing data are 2-forms spanned by dy1^dy2 / (y1^a y2^b) with a, b >= 1; the
transition twists a weight-one section by the contraction of its vector-field
part into the gluing form.  Section extension is exact monomial bookkeeping:
a monomial extends to a chart exactly when it has no pole there, and the
obstruction space is spanned by the doubly negative monomials.
"""

from __future__ import annotations

from typing import Mapping

from .algebroid import WeightOneElement, embed, fock_algebra
from .errors import InvalidInput, VariableMismatch
from .freefield import nproduct, translate
from .laurent import LaurentElement, OneForm, exponent_vectors, homogeneous_degree
from .scalar import LinearCombination, Scalar, exact

V2 = ("y1", "y2")


class GluingForm(LinearCombination):
    """Combination sum c_ab dy1^dy2 / (y1^a y2^b) with a, b >= 1: the one
    kind of 2-form of the package, on the punctured plane."""

    __slots__ = ()
    variables = V2

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        clean = {}
        for (a, b), c in (terms or {}).items():
            if a < 1 or b < 1:
                raise InvalidInput("gluing basis indices must satisfy a, b >= 1")
            c = exact(c)
            if c:
                clean[(a, b)] = c
        super().__init__(clean)

    @staticmethod
    def basis(a: int, b: int, coeff: Scalar = 1) -> "GluingForm":
        return GluingForm({(a, b): coeff})

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({c})*w[{a},{b}]" for (a, b), c in sorted(self._terms.items()))


def transition(v: WeightOneElement, omega: GluingForm,
               direction: str | None = None) -> WeightOneElement:
    """Twisted chart change: add the contraction of the field part into omega.

    The direction defaults to leaving the section's chart: "2->1" for a
    section on U2, "1->2" otherwise.  A section on U1 or U2 can only leave its
    chart, so any other explicit direction is refused.  The image is labelled
    with the other chart (U1 <-> U2); any other label, such as an overlap, is
    kept and takes either direction.
    """
    if v.variables != omega.variables:
        raise VariableMismatch("section and gluing form over different variables")
    other, leaving, _ = _CHARTS.get(v.chart, _CHARTS["U1"])
    if direction is None:
        direction = leaving
    if direction not in ("1->2", "2->1"):
        raise InvalidInput("direction must be '1->2' or '2->1'")
    if v.chart in _CHARTS and direction != leaving:
        raise InvalidInput(f"a section on {v.chart} transitions {leaving}, not {direction}")
    # the contraction of f1 D1 + f2 D2 into phi dy1^dy2 is f1 phi dy2 - f2 phi dy1,
    # phi = sum c_ab y1^-a y2^-b; the direction 2->1 subtracts it
    phi = LaurentElement(V2, {(-a, -b): c for (a, b), c in omega.terms.items()})
    if direction == "2->1":
        phi = -phi
    corr = {3 - i: f * phi if i == 1 else -(f * phi) for i, f in v.field_part.items()}
    image = WeightOneElement(other if v.chart in _CHARTS else v.chart, v.variables)
    return image._new(v.terms) + WeightOneElement.form(image.chart, OneForm(V2, corr))


# chart -> (the other chart, the direction leaving it, the coordinate with no
# pole on it: U1 allows poles along the first coordinate only, U2 along the
# second); any other label, such as an overlap, routes as U1
_CHARTS = {"U1": ("U2", "1->2", 2), "U2": ("U1", "2->1", 1)}


def _laurent_regular(f: LaurentElement, j: int) -> bool:
    m = f.min_exponent(j)
    return m is None or m >= 0


def regular_on(v: WeightOneElement, chart: str) -> bool:
    """True when every coefficient is pole-free on the given chart."""
    if chart not in _CHARTS:
        raise InvalidInput("chart must be 'U1' or 'U2'")
    return all(_laurent_regular(f, _CHARTS[chart][2]) for f in v.terms.values())


def extend_section(v: WeightOneElement, omega: GluingForm):
    """Correct a section regular on its chart (U1 or U2) by a one-form
    regular there so that its transition image is regular on the other chart;
    returns the corrected section or None.

    The correction is found by exact pole cancellation: monomials of the
    twisted form with a pole on the other chart must be absorbed, and a
    monomial singular on both charts cannot be, so failure is a proof at this
    degree.
    """
    homogeneous_degree(v)
    source = v.chart if v.chart in _CHARTS else "U1"
    target, direction, j_source = _CHARTS[source]
    if not regular_on(v, source):
        raise InvalidInput(f"input section must be regular on {source}")
    j_target = _CHARTS[target][2]
    alpha: dict[int, LaurentElement] = {}
    for (cls, k), g in transition(v, omega, direction).terms.items():
        pole = g._new({exp: c for exp, c in g.terms.items() if exp[j_target - 1] < 0})
        if not pole:
            continue
        # a frame component cannot be corrected by a one-form, and a doubly
        # negative monomial is an unremovable obstruction
        if cls == "d" or not _laurent_regular(pole, j_source):
            return None
        alpha[k] = -pole
    return v + WeightOneElement.form(v.chart, OneForm(v.variables, alpha))


def invariant_sections(degree: int, N: int) -> list[WeightOneElement]:
    """Monomial vector fields on U1 with polynomial coefficients of the given
    internal degree whose grading residue mod N vanishes."""
    if degree % N != 0:
        return []
    return [WeightOneElement.field("U1", V2, i, LaurentElement.monomial(V2, exp))
            for exp in exponent_vectors(degree + 1, 2) for i in (1, 2)]


def conformal_glue_check(omega: GluingForm) -> bool:
    """The conformal element survives the twisted gluing.

    Embeds L = sum_j T(y_j) applied to frame j on the overlap, rebuilds it
    with each frame generator replaced by its transition image, and compares
    exactly.
    """
    variables = omega.variables
    alg = fock_algebra(variables)
    one = LaurentElement.constant(variables, 1)
    rebuilt = alg.zero()
    for j in range(1, len(variables) + 1):
        frame_im = embed(transition(WeightOneElement.field("U1", variables, j, one), omega),
                         alg)
        rebuilt = rebuilt + nproduct(translate(alg.coordinate(j)), -1, frame_im)
    return rebuilt == alg.virasoro_element()
