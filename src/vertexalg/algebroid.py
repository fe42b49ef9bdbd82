"""Structured weight-0/1 vertex algebroid layer over a Laurent chart ring.

A weight-one element is a sum of frame components f_i applied to the i-th
frame field (one single _(-1) application each) plus a one-form.  The _(0)
and _(1) products are evaluated by closed-form rules; the rules are checked
once per variable list against the free-field engine on a battery of
symbolic monomials, and any disagreement is a hard error, so the engine
stays the single source of truth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import ChartMismatch, InvalidInput, RuleOracleDivergence, VariableMismatch
from .freefield import FreeFieldAlgebra, FreeFieldElement, nproduct
from .laurent import (
    LaurentElement,
    OneForm,
    VectorField,
    bracket as vf_bracket,
    de_rham,
    iota_one,
    lie_derivative,
)
from .scalar import ONE, ParamScalar, accumulate, solve_linear_system


class WeightOneElement:
    """Sum of frame components f_i (x) frame_i plus a one-form, on a chart."""

    __slots__ = ("chart", "variables", "field_part", "form_part")

    def __init__(self, chart: str, variables: tuple[str, ...],
                 field_part: dict[int, LaurentElement] | None = None,
                 form_part: OneForm | None = None):
        self.chart = chart
        self.variables = tuple(variables)
        clean: dict[int, LaurentElement] = {}
        for i, f in (field_part or {}).items():
            if f.variables != self.variables:
                raise VariableMismatch("frame component over wrong variable list")
            if not f.is_zero():
                clean[i] = f
        self.field_part = clean
        self.form_part = form_part if form_part is not None else OneForm(self.variables)
        if self.form_part.variables != self.variables:
            raise VariableMismatch("form part over wrong variable list")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def field(chart: str, variables, i: int, f: LaurentElement) -> "WeightOneElement":
        return WeightOneElement(chart, variables, {i: f})

    @staticmethod
    def form(chart: str, omega: OneForm) -> "WeightOneElement":
        return WeightOneElement(chart, omega.variables, {}, omega)

    # -- structure ----------------------------------------------------------

    def _check(self, other: "WeightOneElement") -> None:
        if self.chart != other.chart:
            raise ChartMismatch(f"charts differ: {self.chart} vs {other.chart}")
        if self.variables != other.variables:
            raise VariableMismatch("variable lists differ")

    def __add__(self, other: "WeightOneElement") -> "WeightOneElement":
        self._check(other)
        fields = dict(self.field_part)
        for i, f in other.field_part.items():
            g = fields.get(i)
            fields[i] = f if g is None else g + f
        return WeightOneElement(self.chart, self.variables, fields,
                                self.form_part + other.form_part)

    def __neg__(self) -> "WeightOneElement":
        return WeightOneElement(self.chart, self.variables,
                                {i: -f for i, f in self.field_part.items()},
                                -self.form_part)

    def __sub__(self, other: "WeightOneElement") -> "WeightOneElement":
        return self + (-other)

    def scale(self, c) -> "WeightOneElement":
        return WeightOneElement(self.chart, self.variables,
                                {i: f.scale(c) for i, f in self.field_part.items()},
                                self.form_part.scale(c))

    def is_zero(self) -> bool:
        return not self.field_part and self.form_part.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightOneElement):
            return NotImplemented
        return (self.chart == other.chart and self.variables == other.variables
                and self.field_part == other.field_part
                and self.form_part == other.form_part)

    def __hash__(self) -> int:
        return hash((self.chart, self.variables,
                     frozenset(self.field_part.items()), self.form_part))

    def __repr__(self) -> str:
        parts = [f"({f})*D{self.variables[i - 1]}"
                 for i, f in sorted(self.field_part.items())]
        if not self.form_part.is_zero():
            parts.append(repr(self.form_part))
        return " + ".join(parts) if parts else "0"


# -- embedding into and extraction from the free-field engine ----------------


def fock_algebra(variables, max_weight: int = 3) -> FreeFieldAlgebra:
    """The shared algebra of a variable list, so its product table is reused."""
    return _shared_algebra(tuple(variables), max_weight)


@functools.cache
def _shared_algebra(variables: tuple[str, ...], max_weight: int) -> FreeFieldAlgebra:
    return FreeFieldAlgebra(variables, max_weight)


def embed_form(omega: OneForm, alg: FreeFieldAlgebra) -> FreeFieldElement:
    out = alg.zero()
    for k, g in omega.terms.items():
        out = out + alg.word(g, [("y", k, 1)])
    return out


def embed(v: WeightOneElement, alg: FreeFieldAlgebra) -> FreeFieldElement:
    """Inject: each frame component is one single application, plus the form.

    A raw word f*frame_i differs from the single application by the exterior
    derivative of the frame derivative of f, which the injection subtracts.
    """
    out = embed_form(v.form_part, alg)
    for i, f in v.field_part.items():
        out = out + alg.word(f, [("d", i, 0)])
        out = out - embed_form(de_rham(f.derive(i)), alg)
    return out


def extract(x: FreeFieldElement, chart: str) -> WeightOneElement:
    """Inverse of embed on weight-one elements."""
    variables = x.algebra.variables
    fields: dict[int, LaurentElement] = {}
    forms: dict[int, LaurentElement] = {}
    for (alpha, tail), coeff in x.terms.items():
        if len(tail) != 1:
            raise InvalidInput("not a weight-one element")
        cls, i, m = tail[0]
        mono = LaurentElement.monomial(variables, alpha, coeff)
        if (cls, m) == ("d", 0):
            accumulate(fields, i, mono)
        elif (cls, m) == ("y", 1):
            accumulate(forms, i, mono)
        else:
            raise InvalidInput("not a weight-one element")
    div = LaurentElement(variables)
    for i, f in fields.items():
        div = div + f.derive(i)
    form = OneForm(variables, forms) + de_rham(div)
    return WeightOneElement(chart, variables, fields, form)


# -- closed-form products -----------------------------------------------------


def _vprod1(u: WeightOneElement, v: WeightOneElement) -> LaurentElement:
    out = zero = LaurentElement(u.variables)
    for i, f in u.field_part.items():
        for j, g in v.field_part.items():
            out = out - f * g.derive(j).derive(i) - g * f.derive(i).derive(j) \
                - g.derive(i) * f.derive(j)
        out = out + f * v.form_part.get(i, zero)
    for j, g in v.field_part.items():
        out = out + g * u.form_part.get(j, zero)
    return out


def _vprod0(u: WeightOneElement, v: WeightOneElement) -> WeightOneElement:
    variables = u.variables
    n = len(variables)
    fields: dict[int, LaurentElement] = {}
    form = OneForm(variables)
    for i, f in u.field_part.items():
        for j, g in v.field_part.items():
            accumulate(fields, j, f * g.derive(i))
            accumulate(fields, i, -(g * f.derive(j)))
            dij_f = f.derive(i).derive(j)
            form = form - de_rham(g).scale(dij_f) \
                - de_rham(f.derive(j)).scale(g.derive(i)) \
                - de_rham(dij_f).scale(g)
        # field acting on the form part of v: the classical Lie derivative
        for l, g in v.form_part.terms.items():
            form = form + OneForm(variables, {l: f * g.derive(i)})
            if l == i:
                form = form + de_rham(f).scale(g)
    # form part of u acting on the field part of v
    if u.form_part and v.field_part:
        tau = VectorField(variables, v.field_part)
        form = form - lie_derivative(tau, u.form_part) \
            + de_rham(iota_one(tau, u.form_part))
    return WeightOneElement(u.chart, variables, fields, form)


# one-time oracle check of the closed forms, per variable list
_validated: set[tuple[str, ...]] = set()


def _validate_rules(variables: tuple[str, ...]) -> None:
    if variables in _validated:
        return
    n = len(variables)
    exps = [(0,) * n]
    for i in range(min(n, 2)):
        for e in (1, 2, -1):
            vec = [0] * n
            vec[i] = e
            exps.append(tuple(vec))
    if n >= 2:
        exps.append((1, 1) + (0,) * (n - 2))
        exps.append((-1, 1) + (0,) * (n - 2))
    # a private algebra: its table of one-off products is freed on return
    alg = FreeFieldAlgebra(variables, 3)
    k = ParamScalar.var("k")
    samples = []
    for i in range(1, min(n, 2) + 1):
        for j in range(1, min(n, 2) + 1):
            for ea in exps[:5]:
                for eb in exps:
                    fa = LaurentElement.monomial(variables, ea)
                    fb = LaurentElement.monomial(variables, eb, k)
                    samples.append((WeightOneElement.field("c", variables, i, fa),
                                    WeightOneElement.field("c", variables, j, fb)))
    # mixed field/form pairs
    for i in range(1, min(n, 2) + 1):
        for l in range(1, min(n, 2) + 1):
            for e in exps[:6]:
                f = LaurentElement.monomial(variables, e)
                om = WeightOneElement.form(
                    "c", OneForm(variables, {l: LaurentElement.monomial(variables, e, k)}))
                fld = WeightOneElement.field("c", variables, i, f)
                samples.append((fld, om))
                samples.append((om, fld))
    for u, v in samples:
        eu, ev = embed(u, alg), embed(v, alg)
        want1 = nproduct(eu, 1, ev)
        got1 = alg.from_laurent(_vprod1(u, v))
        if want1 != got1:
            raise RuleOracleDivergence(f"_(1) rule/oracle divergence on {u!r}, {v!r}: "
                                       f"oracle minus rule is {want1 - got1}")
        want0 = nproduct(eu, 0, ev)
        got0 = embed(_vprod0(u, v), alg)
        if want0 != got0:
            raise RuleOracleDivergence(f"_(0) rule/oracle divergence on {u!r}, {v!r}: "
                                       f"oracle minus rule is {want0 - got0}")
    _validated.add(variables)


def vprod(u: WeightOneElement, n: int, v: WeightOneElement):
    """The _(n) product of weight-one elements, n in {0, 1}.

    Returns a function for n = 1 and a weight-one element for n = 0.
    """
    u._check(v)
    _validate_rules(u.variables)
    if n == 1:
        return _vprod1(u, v)
    if n == 0:
        return _vprod0(u, v)
    raise InvalidInput("only the weight-0 and weight-1 products live in this layer")


def oracle_vprod(u: WeightOneElement, n: int, v: WeightOneElement):
    """Same product evaluated by the free-field engine (the ground truth)."""
    u._check(v)
    alg = fock_algebra(u.variables, 3)
    res = nproduct(embed(u, alg), n, embed(v, alg))
    if n == 1:
        return alg.to_laurent(res)
    return extract(res, u.chart)


# -- symbols and the classical comparison ------------------------------------


def symbol(v: WeightOneElement) -> tuple[VectorField, OneForm]:
    """Projection to the classical Courant algebroid: vector field plus form."""
    return VectorField(v.variables, dict(v.field_part)), v.form_part


def classical_vprod(u: WeightOneElement, n: int, v: WeightOneElement):
    """The Courant (quasiclassical) product of the symbols."""
    tau_u, om_u = symbol(u)
    tau_v, om_v = symbol(v)
    variables = u.variables
    if n == 1:
        return iota_one(tau_u, om_v) + iota_one(tau_v, om_u)
    if n == 0:
        br = vf_bracket(tau_u, tau_v)
        form = lie_derivative(tau_u, om_v) - lie_derivative(tau_v, om_u) \
            + de_rham(iota_one(tau_v, om_u))
        return WeightOneElement(u.chart, variables, br.terms, form)
    raise InvalidInput("only n in {0, 1}")


def classical_defect(u: WeightOneElement, n: int, v: WeightOneElement):
    """Quantum minus classical product; must sit one filtration step down."""
    if n == 1:
        return vprod(u, 1, v) - classical_vprod(u, 1, v)
    defect = vprod(u, 0, v) - classical_vprod(u, 0, v)
    if defect.field_part:
        raise RuleOracleDivergence(
            f"weight-0 defect {defect!r} has a vector-field component; "
            "filtration violated"
        )
    return defect


# -- morphism checking ---------------------------------------------------------


@dataclass
class MorphismReport:
    status: str  # "pass" | "fail"
    levels: tuple[ParamScalar, ParamScalar] | None = None
    failures: list = field(default_factory=list)


def gl_basis(n: int) -> list[str]:
    return [f"E{a}{b}" for a in range(1, n + 1) for b in range(1, n + 1)]


def gl_bracket_table(n: int) -> dict[tuple[str, str], dict[str, ParamScalar]]:
    """[E_ab, E_cd] = delta_bc E_ad - delta_da E_cb."""
    table = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                for d in range(1, n + 1):
                    out: dict[str, ParamScalar] = {}
                    if b == c:
                        accumulate(out, f"E{a}{d}", ONE)
                    if d == a:
                        accumulate(out, f"E{c}{b}", -ONE)
                    table[(f"E{a}{b}", f"E{c}{d}")] = out
    return table


def gl_pairing_table(n: int):
    """(a, b) = k1 tr(a0 b0) + k2 tr(a) tr(b) / n, a0 the traceless part."""
    from fractions import Fraction

    k1 = ParamScalar.var("k1")
    k2 = ParamScalar.var("k2")
    table = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                for d in range(1, n + 1):
                    tr_prod = Fraction(1 if (b == c and a == d) else 0)
                    tr_a = Fraction(1 if a == b else 0)
                    tr_b = Fraction(1 if c == d else 0)
                    val = k1 * ParamScalar.of(tr_prod - tr_a * tr_b / n) \
                        + k2 * ParamScalar.of(tr_a * tr_b / n)
                    table[(f"E{a}{b}", f"E{c}{d}")] = val
    return table


def morphism_check(basis: list[str],
                   brackets: dict[tuple[str, str], dict[str, ParamScalar]],
                   pairing: dict[tuple[str, str], ParamScalar],
                   images: dict[str, "WeightOneElement"]) -> MorphismReport:
    """Verify a Lie-algebra-to-algebroid morphism and solve for the levels.

    Checks rho(a)_(0)rho(b) = rho([a,b]) exactly (field and form parts) and
    rho(a)_(1)rho(b) = (a,b).  Parameters occurring in the pairing table and
    not in the images are solved for; everything is re-verified at the solved
    values.
    """
    names = set()
    for val in pairing.values():
        names |= val.parameters()
    for im in images.values():
        for f in im.field_part.values():
            for c in f.terms.values():
                names -= c.parameters()
        for g in im.form_part.terms.values():
            for c in g.terms.values():
                names -= c.parameters()
    unknowns = sorted(names)
    failures = []
    equations = []
    computed1 = {}
    for a in basis:
        for b in basis:
            p = vprod(images[a], 1, images[b])
            if not p.is_zero() and p.degrees() != {0}:
                failures.append(((a, b), 1, f"non-scalar pairing {p}"))
                continue
            computed1[(a, b)] = p.constant_term()
            equations.append(((a, b), p.constant_term() - pairing[(a, b)]))
    levels = None
    if unknowns:
        sol = solve_linear_system([eq for _, eq in equations], unknowns)
        if sol.status != "unique":
            failures.append((("pairing", "solve"), 1, f"level solve {sol.status}"))
        else:
            levels = (sol.assignment.get("k1"), sol.assignment.get("k2"))
            for pair, eq in equations:
                if not eq.substitute(sol.assignment).is_zero():
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
    status = "pass" if not failures else "fail"
    return MorphismReport(status, levels, failures)
