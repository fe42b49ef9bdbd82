"""Structured weight-0/1 vertex algebroid layer over a Laurent chart ring.

A weight-one element is a sum of frame components f_i applied to the i-th
frame field (one single _(-1) application each) plus a one-form, keyed by
the Fock creation symbols they embed as.  The _(0) and _(1) products are
evaluated by closed-form rules; the rules are checked once per variable list
against the free-field engine on a battery of symbolic monomials, and any
disagreement is a hard error, so the engine stays the single source of
truth.  The battery's monomials and components range over the first and
the last variable, so for n >= 3 its samples reach y_n, not only y1 and y2.
Each distinct sample section of that battery is built and embedded once;
every sample still runs both products in the engine.

Components are Laurent elements over scalar coefficients (see `scalar`): a
constant coefficient is a plain int or Fraction, and only one that holds a
parameter (k, k1, ...) is a ParamScalar.  So a pairing equation, and a solved
level, is a number unless a parameter is left in it.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ChartMismatch, InvalidInput, RuleOracleDivergence, VariableMismatch
from .freefield import FreeFieldAlgebra, FreeFieldElement, nproduct
from .laurent import LaurentElement, OneForm, de_rham, degrees, mul_into
from .scalar import (
    LinearCombination,
    ParamScalar,
    Scalar,
    accumulate,
    solve_linear_system,
)


class WeightOneElement(LinearCombination):
    """Sum of frame components f_i (x) frame_i plus a one-form, on a chart.

    Terms are keyed by the Fock creation symbol each component embeds as:
    ("d", i) holds the frame component f_i and ("y", j) the form component
    g_j.  Operands must share the chart as well as the variable list.
    """

    __slots__ = ("chart", "variables")
    degree_shift = staticmethod(lambda key: -1 if key[0] == "d" else 1)

    def __init__(self, chart: str, variables: tuple[str, ...],
                 field_part: dict[int, LaurentElement] | None = None,
                 form_part: OneForm | None = None):
        self.chart = chart
        self.variables = tuple(variables)
        terms = {}
        for i, f in (field_part or {}).items():
            if f.variables != self.variables:
                raise VariableMismatch("frame component over wrong variable list")
            if f:
                terms[("d", i)] = f
        if form_part is not None:
            if form_part.variables != self.variables:
                raise VariableMismatch("form part over wrong variable list")
            terms.update({("y", j): g for j, g in form_part.terms.items()})
        super().__init__(terms)

    def _new(self, terms: dict) -> "WeightOneElement":
        out = object.__new__(type(self))
        out._terms = terms
        out._hash = None
        out.chart = self.chart
        out.variables = self.variables
        return out

    # -- constructors -----------------------------------------------------

    @staticmethod
    def field(chart: str, variables, i: int, f: LaurentElement) -> "WeightOneElement":
        return WeightOneElement(chart, variables, {i: f})

    @staticmethod
    def form(chart: str, omega: OneForm) -> "WeightOneElement":
        return WeightOneElement(chart, omega.variables, None, omega)

    # -- views ----------------------------------------------------------------

    @property
    def field_part(self) -> dict[int, LaurentElement]:
        """The frame components {i: f_i}."""
        return {i: f for (cls, i), f in self._terms.items() if cls == "d"}

    @property
    def form_part(self) -> OneForm:
        """The one-form sum g_j dy_j."""
        return OneForm(self.variables)._new(
            {j: g for (cls, j), g in self._terms.items() if cls == "y"})

    # -- structure ----------------------------------------------------------

    def _check(self, other: "WeightOneElement") -> None:
        if self.chart != other.chart:
            raise ChartMismatch(f"charts differ: {self.chart} vs {other.chart}")
        super()._check(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightOneElement):
            return NotImplemented
        return self.chart == other.chart and super().__eq__(other)

    def __hash__(self) -> int:
        return hash((self.chart, super().__hash__()))

    def __repr__(self) -> str:
        return " + ".join(f"({f})*{_PREFIX[cls]}{self.variables[i - 1]}"
                          for (cls, i), f in sorted(self._terms.items())) or "0"


# key class -> printed prefix ("D" for d/dy_i, "d" for dy_j) and Fock order m
_PREFIX = {"d": "D", "y": "d"}
_ORDER = {"d": 0, "y": 1}


# -- embedding into and extraction from the free-field engine ----------------


def fock_algebra(variables, max_weight: int = 3) -> FreeFieldAlgebra:
    """The shared algebra of a variable list, so its product table is reused."""
    return _shared_algebra(tuple(variables), max_weight)


@functools.cache
def _shared_algebra(variables: tuple[str, ...], max_weight: int) -> FreeFieldAlgebra:
    return FreeFieldAlgebra(variables, max_weight)


def _exact_part(variables: tuple[str, ...], terms: dict) -> OneForm:
    """d(sum_i d f_i/dy_i) over the frame components of a keyed term dict.

    A raw word f*frame_i differs from the single application of the frame
    field by the exterior derivative of the frame derivative of f.
    """
    div = LaurentElement(variables)
    for (cls, i), f in terms.items():
        if cls == "d":
            div = div + f.derive(i)
    return de_rham(div) if div else OneForm(variables)


def embed(v: WeightOneElement, alg: FreeFieldAlgebra) -> FreeFieldElement:
    """Inject: the term at ("d", i) or ("y", j) becomes its creation symbol
    ("d", i, 0) or ("y", j, 1), and the raw frame words are corrected to
    single applications by subtracting their exact part.  Every word has one
    symbol of weight 1 and every sum goes through `accumulate`, so the terms
    are canonical and the element is built from them by `_new`."""
    if v.variables != alg.variables:
        raise VariableMismatch("section over wrong variable list")
    terms = {(alpha, ((cls, i, _ORDER[cls]),)): c
             for (cls, i), f in v._terms.items() for alpha, c in f._terms.items()}
    for j, g in _exact_part(v.variables, v._terms)._terms.items():
        for alpha, c in g._terms.items():
            accumulate(terms, (alpha, (("y", j, 1),)), -c)
    return alg.zero()._new(terms)


def extract(x: FreeFieldElement, chart: str) -> WeightOneElement:
    """Inverse of embed on weight-one elements."""
    variables = x.variables
    parts: dict = {}
    for (alpha, tail), coeff in x._terms.items():
        if len(tail) != 1 or _ORDER.get(tail[0][0]) != tail[0][2]:
            raise InvalidInput("not a weight-one element")
        parts.setdefault(tail[0][:2], {})[alpha] = coeff
    zero = LaurentElement(variables)
    terms = {key: zero._new(exps) for key, exps in parts.items()}
    for j, g in _exact_part(variables, terms)._terms.items():
        accumulate(terms, ("y", j), g)
    return WeightOneElement(chart, variables)._new(terms)


# -- closed-form products -----------------------------------------------------


def _vprod1(u: WeightOneElement, v: WeightOneElement) -> LaurentElement:
    terms: dict = {}
    for (cu, i), f in u._terms.items():
        for (cv, j), g in v._terms.items():
            if cu == cv == "d":
                # -(f g_ji + g f_ij + g_i f_j); a zero first derivative
                # drops its terms before any product is formed
                gj, fi, gi, fj = g.derive(j), f.derive(i), g.derive(i), f.derive(j)
                if gj:
                    mul_into(terms, f, gj.derive(i), True)
                if fi:
                    mul_into(terms, g, fi.derive(j), True)
                if gi and fj:
                    mul_into(terms, gi, fj, True)
            elif cu != cv and i == j:  # a frame component against a form component
                mul_into(terms, f, g)
    return LaurentElement(u.variables)._new(terms)


def _vprod0(u: WeightOneElement, v: WeightOneElement) -> WeightOneElement:
    # each product term goes straight into the exponent dict of its key
    parts: dict = {}
    n = len(u.variables)

    def add(key, f: LaurentElement, g: LaurentElement, negate: bool = False) -> None:
        mul_into(parts.setdefault(key, {}), f, g, negate)

    def add_form(f: LaurentElement, g: LaurentElement, negate: bool = False) -> None:
        # the one-form d(f) times g
        for l in range(1, n + 1):
            fl = f.derive(l)
            if fl:
                add(("y", l), fl, g, negate)

    for (cu, i), f in u._terms.items():
        for (cv, j), g in v._terms.items():
            if cu == cv == "d":
                gi, fi, fj = g.derive(i), f.derive(i), f.derive(j)
                if gi:
                    add(("d", j), f, gi)
                if fj:
                    add(("d", i), g, fj, True)
                # -(dg f_ij + d(f_j) g_i + d(f_ij) g), each skipped when a
                # factor is zero
                fij = fi.derive(j) if fi else None
                if fij:
                    add_form(g, fij, True)
                    add_form(fij, g, True)
                if fj and gi:
                    add_form(fj, gi, True)
            elif cu == "d":
                # the field of u on the form of v: its Lie derivative,
                # f d_i(g) dy_j + g d(f) when j == i
                gi = g.derive(i)
                if gi:
                    add(("y", j), f, gi)
                if j == i:
                    add_form(f, g)
            elif cv == "d":
                # the form of u against the field of v: -iota_v d(u),
                # -g d_j(f) dy_i + g d(f) when j == i
                fj = f.derive(j)
                if fj:
                    add(("y", i), g, fj, True)
                if j == i:
                    add_form(f, g)
    zero = LaurentElement(u.variables)
    return u._new({key: zero._new(exps) for key, exps in parts.items() if exps})


# one-time oracle check of the closed forms, per variable list
_validated: set[tuple[str, ...]] = set()


def _validate_rules(variables: tuple[str, ...]) -> None:
    if variables in _validated:
        return
    n = len(variables)
    indices = sorted({1, n})  # the first and the last variable
    exps = [(0,) * n]
    for i in indices:
        for e in (1, 2, -1):
            vec = [0] * n
            vec[i - 1] = e
            exps.append(tuple(vec))
    if n >= 2:
        for e in (1, -1):
            vec = [0] * n
            vec[0], vec[-1] = e, 1
            exps.append(tuple(vec))
    # a private algebra: its table of one-off products is freed on return
    alg = FreeFieldAlgebra(variables, 3)
    k = ParamScalar.var("k")

    def frame(i, e, c=1):
        return WeightOneElement.field("c", variables, i, LaurentElement.monomial(variables, e, c))

    # each distinct section is built and embedded once, then sampled in pairs
    fields = {(i, e): frame(i, e) for i in indices for e in exps[:6]}
    k_fields = {(j, e): frame(j, e, k) for j in indices for e in exps}
    forms = {(l, e): WeightOneElement.form(
                 "c", OneForm(variables, {l: LaurentElement.monomial(variables, e, k)}))
             for l in indices for e in exps[:6]}
    embedded = {v: embed(v, alg)
                for v in (*fields.values(), *k_fields.values(), *forms.values())}
    samples = [(fields[i, ea], k_fields[j, eb])
               for i in indices for j in indices for ea in exps[:5] for eb in exps]
    # mixed field/form pairs, in both orders; the form's monomial is not the
    # field's, so that d(f) g and d(g) f differ
    for i in indices:
        for l in indices:
            for idx, e in enumerate(exps[:6]):
                field, form = fields[i, e], forms[l, exps[(idx + 1) % 6]]
                samples.append((field, form))
                samples.append((form, field))
    for u, v in samples:
        eu, ev = embedded[u], embedded[v]
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


# -- morphism checking ---------------------------------------------------------


class MorphismReport(NamedTuple):
    status: str  # "pass" | "fail"
    levels: tuple[Scalar, Scalar] | None
    failures: list


def gl_basis(n: int) -> list[str]:
    """The names of the currents E_ab in (a, b) order: E{a}{b} up to n = 9,
    E{a},{b} from n = 10 on, where the short names would collide."""
    sep = "," if n > 9 else ""
    return [f"E{a}{sep}{b}" for a in range(1, n + 1) for b in range(1, n + 1)]


def morphism_check(images: dict[str, WeightOneElement]) -> MorphismReport:
    """Verify a gl_n-to-algebroid morphism and solve for its levels (k1, k2).

    images maps each name of gl_basis(n) to the image of that current.
    Checks rho(a)_(0)rho(b) = rho([a,b]) exactly (field and form parts), with
    [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb, and rho(a)_(1)rho(b) =
    k1 (tr(ab) - t) + k2 t, with t = tr(a) tr(b) / n.  Both products of
    every pair are computed, and equal equations of different pairs are
    solved once.  The levels are those of `solve_linear_system`, which checks
    its unique solution against every equation it was given (VertexAlgError
    otherwise), so each pair's equation holds at the printed levels.
    """
    n = math.isqrt(len(images))
    names = gl_basis(n)
    if set(images) != set(names):
        raise InvalidInput(f"the images must be keyed by gl_basis({n})")
    index = range(1, n + 1)
    name = dict(zip(itertools.product(index, repeat=2), names))
    pairs = list(itertools.product(index, repeat=4))
    failures = []
    equations = []
    # the pairing takes four values, set by tr(ab) and by whether t != 0
    pairings = {(tr_prod, bool(t)): ParamScalar({(("k1", 1),): tr_prod - t,
                                                 (("k2", 1),): t})
                for tr_prod in (0, 1) for t in (Fraction(0), Fraction(1, n))}
    for a, b, c, d in pairs:
        pair = (name[a, b], name[c, d])
        p = vprod(images[pair[0]], 1, images[pair[1]])
        if p and degrees(p) != {0}:
            failures.append((pair, 1, f"non-scalar pairing {p}"))
            continue
        pairing = pairings[b == c and a == d, a == b and c == d]
        equations.append(p.constant_term() - pairing)
    levels = None
    # equal equations span the same rows: solve each once
    sol = solve_linear_system(dict.fromkeys(equations), ["k1", "k2"])
    if sol.status != "unique":
        failures.append((("pairing", "solve"), 1, f"level solve {sol.status}"))
    else:
        levels = (sol.assignment.get("k1"), sol.assignment.get("k2"))
    for a, b, c, d in pairs:
        pair = (name[a, b], name[c, d])
        got = vprod(images[pair[0]], 0, images[pair[1]])
        # the bracket image, None for zero, which is never built
        if b == c:
            want = images[name[a, d]] - images[name[c, b]] if d == a else images[name[a, d]]
        else:
            want = -images[name[c, b]] if d == a else None
        defect = got if want is None else got - want if got != want else None
        if defect:
            failures.append((pair, 0, f"bracket defect {defect!r}"))
    status = "pass" if not failures else "fail"
    return MorphismReport(status, levels, failures)
