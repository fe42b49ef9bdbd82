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

from .algebroid import WeightOneElement, embed_form, fock_algebra
from .errors import InhomogeneousInput, InvalidInput, VariableMismatch
from .freefield import nproduct, translate
from .laurent import (
    LaurentElement,
    OneForm,
    TwoForm,
    VectorField,
    exponent_vectors,
    iota_two,
)
from .scalar import ONE, ZERO, ParamScalar

V2 = ("y1", "y2")


class GluingForm:
    """Combination sum c_ab dy1^dy2 / (y1^a y2^b) with a, b >= 1."""

    __slots__ = ("variables", "_terms")

    def __init__(self, terms: Mapping[tuple[int, int], ParamScalar] | None = None,
                 variables: tuple[str, str] = V2):
        self.variables = tuple(variables)
        clean = {}
        for (a, b), c in (terms or {}).items():
            if a < 1 or b < 1:
                raise InvalidInput("gluing basis indices must satisfy a, b >= 1")
            if isinstance(c, int):
                c = ParamScalar.of(c)
            if not c.is_zero():
                clean[(a, b)] = c
        self._terms = clean

    @staticmethod
    def basis(a: int, b: int, coeff=ONE, variables=V2) -> "GluingForm":
        return GluingForm({(a, b): coeff}, variables)

    @property
    def terms(self) -> dict[tuple[int, int], ParamScalar]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "GluingForm") -> "GluingForm":
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, ZERO) + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return GluingForm(out, self.variables)

    def __neg__(self) -> "GluingForm":
        return GluingForm({k: -c for k, c in self._terms.items()}, self.variables)

    def __sub__(self, other: "GluingForm") -> "GluingForm":
        return self + (-other)

    def scale(self, c) -> "GluingForm":
        return GluingForm({k: v * c for k, v in self._terms.items()}, self.variables)

    def to_two_form(self) -> TwoForm:
        comp = LaurentElement(self.variables)
        for (a, b), c in self._terms.items():
            comp = comp + LaurentElement.monomial(self.variables, (-a, -b), c)
        return TwoForm(self.variables, {(1, 2): comp})

    def __eq__(self, other) -> bool:
        if not isinstance(other, GluingForm):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({c})*w[{a},{b}]" for (a, b), c in sorted(self._terms.items()))


def transition(v: WeightOneElement, omega: GluingForm,
               direction: str = "1->2") -> WeightOneElement:
    """Twisted chart change: add the contraction of the field part into omega."""
    if v.variables != omega.variables:
        raise VariableMismatch("section and gluing form over different variables")
    tau = VectorField(v.variables, dict(v.field_part))
    corr = iota_two(tau, omega.to_two_form())
    if direction == "2->1":
        corr = -corr
    elif direction != "1->2":
        raise InvalidInput("direction must be '1->2' or '2->1'")
    return WeightOneElement(v.chart, v.variables, dict(v.field_part),
                            v.form_part + corr)


def _pole_variable(chart: str) -> int:
    # U1 allows poles along the first coordinate only, so regularity on U1
    # constrains the second coordinate, and symmetrically for U2
    if chart == "U1":
        return 2
    if chart == "U2":
        return 1
    raise InvalidInput("chart must be 'U1' or 'U2'")


def _laurent_regular(f: LaurentElement, j: int) -> bool:
    m = f.min_exponent(j)
    return m is None or m >= 0


def regular_on(v: WeightOneElement, chart: str) -> bool:
    """True when every coefficient is pole-free on the given chart."""
    j = _pole_variable(chart)
    return all(_laurent_regular(f, j) for f in v.field_part.values()) and all(
        _laurent_regular(g, j) for g in v.form_part.components.values()
    )


def _split_poles(f: LaurentElement, j: int) -> tuple[LaurentElement, LaurentElement]:
    """Split into the part regular in variable j and the polar remainder."""
    reg, pole = {}, {}
    for exp, c in f.terms.items():
        (reg if exp[j - 1] >= 0 else pole)[exp] = c
    return LaurentElement(f.variables, reg), LaurentElement(f.variables, pole)


def _internal_degree(v: WeightOneElement) -> int:
    degs = set()
    for i, f in v.field_part.items():
        degs |= {d - 1 for d in f.degrees()}
    for k, g in v.form_part.components.items():
        degs |= {d + 1 for d in g.degrees()}
    if len(degs) > 1:
        raise InhomogeneousInput(f"section has mixed internal degrees {sorted(degs)}")
    return degs.pop() if degs else 0


def extend_section(v: WeightOneElement, omega: GluingForm):
    """Correct a U1-regular section by a U1-regular one-form so that its
    transition image is U2-regular; returns the corrected section or None.

    The correction is found by exact pole cancellation: monomials of the
    twisted form with a pole on U2 must be absorbed, and a monomial singular
    on both charts cannot be, so failure is a proof at this degree.
    """
    _internal_degree(v)
    if not regular_on(v, "U1"):
        raise InvalidInput("input section must be regular on U1")
    # fields cannot be corrected by a one-form
    if not all(_laurent_regular(f, 1) for f in v.field_part.values()):
        return None
    twisted = transition(v, omega)
    alpha_comps: dict[int, LaurentElement] = {}
    for k, g in twisted.form_part.components.items():
        _, pole = _split_poles(g, 1)
        if pole.is_zero():
            continue
        if not _laurent_regular(pole, 2):
            return None  # doubly negative monomial: unremovable obstruction
        alpha_comps[k] = -pole
    alpha = OneForm(v.variables, alpha_comps)
    return WeightOneElement(v.chart, v.variables, dict(v.field_part),
                            v.form_part + alpha)


def invariant_sections(degree: int, N: int) -> list[WeightOneElement]:
    """Monomial vector fields on U1 with polynomial coefficients of the given
    internal degree whose grading residue mod N vanishes."""
    if degree % N != 0:
        return []
    return [WeightOneElement.field("U1", V2, i, LaurentElement.monomial(V2, exp))
            for exp in exponent_vectors(degree + 1, 2) for i in (1, 2)]


def conformal_glue_check(omega: GluingForm, max_weight: int = 3) -> bool:
    """The conformal element survives the twisted gluing.

    Embeds L = sum_j T(y_j) applied to frame j on the overlap, rebuilds it
    with each frame generator replaced by its transition image, and compares
    exactly.
    """
    alg = fock_algebra(omega.variables, max_weight)
    L = alg.virasoro_element()
    two = omega.to_two_form()
    rebuilt = alg.zero()
    for j in range(1, len(omega.variables) + 1):
        frame_im = alg.frame(j) + embed_form(
            iota_two(VectorField(omega.variables,
                                 {j: LaurentElement.constant(omega.variables, 1)}), two),
            alg)
        rebuilt = rebuilt + nproduct(translate(alg.coordinate(j)), -1, frame_im)
    return rebuilt == L
