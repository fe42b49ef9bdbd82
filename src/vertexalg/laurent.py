"""Laurent polynomial chart rings with Cartan calculus.

Elements are sparse maps from integer exponent vectors (negative exponents
allowed: chart localization) to ParamScalar coefficients.  One-forms,
two-forms and vector fields are componentwise maps into the ring, and the
classical Courant operations (Lie bracket, Lie derivative, contraction) are
implemented by the standard formulas.

Coordinate indices are 1-based throughout (y1, y2, ...).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .errors import InvalidInput, VariableMismatch
from .scalar import ONE, ZERO, ParamScalar

ExpVec = tuple[int, ...]
CoeffLike = Union[ParamScalar, int, Fraction]


def exponent_vectors(total: int, n: int) -> Iterator[ExpVec]:
    """Exponent vectors of the monomials of degree `total` in n variables,
    first exponent descending (lexicographically decreasing)."""
    if n == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in exponent_vectors(total - first, n - 1):
            yield (first,) + rest


def _coerce_scalar(c) -> ParamScalar:
    if isinstance(c, ParamScalar):
        return c
    return ParamScalar.of(c)


class LaurentElement:
    """Laurent polynomial in named coordinates with ParamScalar coefficients."""

    __slots__ = ("variables", "_terms", "_hash")

    def __init__(self, variables: tuple[str, ...], terms: Mapping[ExpVec, ParamScalar] | None = None):
        self.variables = tuple(variables)
        clean: dict[ExpVec, ParamScalar] = {}
        if terms:
            for exp, coeff in terms.items():
                c = _coerce_scalar(coeff)
                if not c.is_zero():
                    if len(exp) != len(self.variables):
                        raise VariableMismatch("exponent vector length mismatch")
                    clean[tuple(exp)] = c
        self._terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def constant(variables: tuple[str, ...], value: CoeffLike) -> "LaurentElement":
        n = len(variables)
        return LaurentElement(variables, {(0,) * n: _coerce_scalar(value)})

    @staticmethod
    def monomial(variables: tuple[str, ...], exponents: Iterable[int],
                 coeff: CoeffLike = 1) -> "LaurentElement":
        return LaurentElement(variables, {tuple(exponents): _coerce_scalar(coeff)})

    @staticmethod
    def coordinate(variables: tuple[str, ...], i: int) -> "LaurentElement":
        exp = [0] * len(variables)
        exp[i - 1] = 1
        return LaurentElement(variables, {tuple(exp): ONE})

    # -- queries -----------------------------------------------------

    @property
    def terms(self) -> dict[ExpVec, ParamScalar]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degrees(self) -> set[int]:
        return {sum(exp) for exp in self._terms}

    def min_exponent(self, i: int) -> int | None:
        """Smallest exponent of coordinate i across terms, None for zero."""
        if not self._terms:
            return None
        return min(exp[i - 1] for exp in self._terms)

    def constant_term(self) -> ParamScalar:
        zero_exp = (0,) * len(self.variables)
        return self._terms.get(zero_exp, ZERO)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "LaurentElement") -> None:
        if self.variables != other.variables:
            raise VariableMismatch(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        self._check(other)
        out = dict(self._terms)
        for exp, c in other._terms.items():
            s = out.get(exp, ZERO) + c
            if s.is_zero():
                out.pop(exp, None)
            else:
                out[exp] = s
        return LaurentElement(self.variables, out)

    def __neg__(self) -> "LaurentElement":
        return LaurentElement(self.variables, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentElement") -> "LaurentElement":
        return self + (-other)

    def __mul__(self, other) -> "LaurentElement":
        if isinstance(other, (int, Fraction, ParamScalar)):
            return self.scale(other)
        self._check(other)
        out: dict[ExpVec, ParamScalar] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentElement(self.variables, out)

    def __rmul__(self, other) -> "LaurentElement":
        return self.scale(other)

    def scale(self, c: CoeffLike) -> "LaurentElement":
        c = _coerce_scalar(c)
        return LaurentElement(self.variables, {e: c * v for e, v in self._terms.items()})

    def __pow__(self, n: int) -> "LaurentElement":
        if n < 0:
            if len(self._terms) != 1:
                raise InvalidInput("negative power of zero or of a non-monomial")
            ((exp, c),) = self._terms.items()
            return LaurentElement(self.variables, {tuple(e * n for e in exp): c ** n})
        out = LaurentElement.constant(self.variables, 1)
        for _ in range(n):
            out = out * self
        return out

    def derive(self, i: int) -> "LaurentElement":
        """Partial derivative d/dy_i, including negative exponents."""
        out: dict[ExpVec, ParamScalar] = {}
        for exp, c in self._terms.items():
            e = exp[i - 1]
            if e == 0:
                continue
            new = list(exp)
            new[i - 1] = e - 1
            key = tuple(new)
            s = out.get(key, ZERO) + c * e
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return LaurentElement(self.variables, out)

    # -- protocol ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.variables, frozenset(self._terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"LaurentElement({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp in sorted(self._terms):
            c = self._terms[exp]
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exp)
                if e != 0
            )
            cs = str(c)
            if " " in cs or "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono and cs != "1" else (mono or cs))
        return " + ".join(parts)


class _Componentwise:
    """Shared plumbing for OneForm / VectorField style containers."""

    __slots__ = ("variables", "_components")

    def __init__(self, variables: tuple[str, ...], components: Mapping | None = None):
        self.variables = tuple(variables)
        clean = {}
        if components:
            for key, val in components.items():
                if isinstance(val, LaurentElement) and val.is_zero():
                    continue
                if val.variables != self.variables:
                    raise VariableMismatch("component over wrong variable list")
                clean[key] = val
        self._components = clean

    @property
    def components(self) -> dict:
        return dict(self._components)

    def component(self, key) -> LaurentElement:
        return self._components.get(key, LaurentElement(self.variables))

    def is_zero(self) -> bool:
        return not self._components

    def __add__(self, other):
        if self.variables != other.variables:
            raise VariableMismatch("variable lists differ")
        out = dict(self._components)
        for key, val in other._components.items():
            new = out[key] + val if key in out else val
            if new.is_zero():
                out.pop(key, None)
            else:
                out[key] = new
        return type(self)(self.variables, out)

    def __neg__(self):
        return type(self)(self.variables, {k: -v for k, v in self._components.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "_Componentwise":
        return type(self)(self.variables, {k: v.scale(c) for k, v in self._components.items()})

    def ring_scale(self, f: LaurentElement) -> "_Componentwise":
        return type(self)(self.variables, {k: f * v for k, v in self._components.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.variables == other.variables and self._components == other._components

    def __hash__(self):
        return hash((type(self).__name__, self.variables,
                     frozenset(self._components.items())))


class OneForm(_Componentwise):
    """Sum g_j dy_j, components keyed by 1-based coordinate index."""

    def __repr__(self):
        if not self._components:
            return "0"
        return " + ".join(
            f"({v})*d{self.variables[j - 1]}" for j, v in sorted(self._components.items())
        )


class TwoForm(_Componentwise):
    """Sum f_ij dy_i ^ dy_j, components keyed by index pairs i < j."""

    def __init__(self, variables, components=None):
        if components:
            for i, j in components:
                if not i < j:
                    raise InvalidInput("two-form keys must satisfy i < j")
        super().__init__(variables, components)

    def __repr__(self):
        if not self._components:
            return "0"
        return " + ".join(
            f"({v})*d{self.variables[i - 1]}^d{self.variables[j - 1]}"
            for (i, j), v in sorted(self._components.items())
        )


class VectorField(_Componentwise):
    """Sum f_i d/dy_i, components keyed by 1-based coordinate index."""

    def __repr__(self):
        if not self._components:
            return "0"
        return " + ".join(
            f"({v})*D{self.variables[i - 1]}" for i, v in sorted(self._components.items())
        )


# -- exterior calculus ---------------------------------------------------


def de_rham(f: LaurentElement) -> OneForm:
    """The de Rham differential d: A -> Omega(A)."""
    n = len(f.variables)
    return OneForm(f.variables, {j: f.derive(j) for j in range(1, n + 1)})


def de_rham_one(omega: OneForm) -> TwoForm:
    """d on one-forms: d(g_j dy_j) = sum_i dg_j/dy_i dy_i ^ dy_j."""
    n = len(omega.variables)
    comps: dict[tuple[int, int], LaurentElement] = {}
    for j, g in omega.components.items():
        for i in range(1, n + 1):
            if i == j:
                continue
            dg = g.derive(i)
            if dg.is_zero():
                continue
            key, sign = ((i, j), 1) if i < j else ((j, i), -1)
            cur = comps.get(key, LaurentElement(omega.variables))
            comps[key] = cur + (dg if sign == 1 else -dg)
    return TwoForm(omega.variables, comps)


def apply_field(tau: VectorField, f: LaurentElement) -> LaurentElement:
    out = LaurentElement(f.variables)
    for i, comp in tau.components.items():
        out = out + comp * f.derive(i)
    return out


def bracket(tau: VectorField, xi: VectorField) -> VectorField:
    """Lie bracket of vector fields."""
    if tau.variables != xi.variables:
        raise VariableMismatch("variable lists differ")
    comps: dict[int, LaurentElement] = {}
    for j, g in xi.components.items():
        val = apply_field(tau, g)
        comps[j] = comps.get(j, LaurentElement(tau.variables)) + val
    for j, f in tau.components.items():
        val = apply_field(xi, f)
        comps[j] = comps.get(j, LaurentElement(tau.variables)) - val
    return VectorField(tau.variables, comps)


def iota_one(tau: VectorField, omega: OneForm) -> LaurentElement:
    """Contraction of a vector field with a one-form."""
    if tau.variables != omega.variables:
        raise VariableMismatch("variable lists differ")
    out = LaurentElement(tau.variables)
    for i, f in tau.components.items():
        g = omega.component(i)
        if not g.is_zero():
            out = out + f * g
    return out


def iota_two(tau: VectorField, omega: TwoForm) -> OneForm:
    """Contraction of a vector field with a two-form (first slot)."""
    if tau.variables != omega.variables:
        raise VariableMismatch("variable lists differ")
    comps: dict[int, LaurentElement] = {}
    for (i, j), g in omega.components.items():
        fi = tau.component(i)
        if not fi.is_zero():
            comps[j] = comps.get(j, LaurentElement(tau.variables)) + fi * g
        fj = tau.component(j)
        if not fj.is_zero():
            comps[i] = comps.get(i, LaurentElement(tau.variables)) - fj * g
    return OneForm(tau.variables, comps)


def lie_derivative(tau: VectorField, omega: OneForm) -> OneForm:
    """Cartan magic formula: Lie_tau = iota_tau d + d iota_tau."""
    return iota_two(tau, de_rham_one(omega)) + de_rham(iota_one(tau, omega))


# -- Z_N weights ----------------------------------------------------------


def _weights_of(obj, shift_for_key) -> set[int]:
    weights = set()
    if isinstance(obj, LaurentElement):
        for exp in obj.terms:
            weights.add(sum(exp))
        return weights
    for key, comp in obj.components.items():
        shift = shift_for_key(key)
        for exp in comp.terms:
            weights.add(sum(exp) + shift)
    return weights


def zn_weight(obj, N: int):
    """Common residue mod N of all monomials, or the string "inhomogeneous".

    dy_i contributes +1, dy_i^dy_j contributes +2, d/dy_i contributes -1.
    """
    if N < 1:
        raise InvalidInput("N must be positive")
    if isinstance(obj, LaurentElement):
        weights = _weights_of(obj, None)
    elif isinstance(obj, OneForm):
        weights = _weights_of(obj, lambda k: 1)
    elif isinstance(obj, TwoForm):
        weights = _weights_of(obj, lambda k: 2)
    elif isinstance(obj, VectorField):
        weights = _weights_of(obj, lambda k: -1)
    else:
        raise TypeError(f"unsupported object {type(obj).__name__}")
    residues = {w % N for w in weights}
    if not residues:
        return 0
    if len(residues) > 1:
        return "inhomogeneous"
    return residues.pop()
