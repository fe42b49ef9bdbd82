"""Laurent polynomial chart rings and their one-forms.

Elements are sparse maps from integer exponent vectors (negative exponents
allowed: chart localization) to scalar coefficients: ints and Fractions, and
ParamScalars only where a parameter is left (see `scalar`).  A negative power
of a monomial raises its coefficient through `scalar.power`, so it stays
exact.  One-forms are sparse maps from coordinate indices to ring elements.
Both are LinearCombinations (see `scalar`); `de_rham` is the differential
between them.

Coordinate indices are 1-based throughout (y1, y2, ...).

Elements are immutable, so a LaurentElement keeps each partial derivative
once computed (`derive`); a result built from it by `_new` starts with none.
The two classes share one `_new`, which stores the variable list.

Grading: the internal degree of a monomial y^e is sum(e); dy_j adds +1 and
d/dy_i adds -1.  Each class of components declares this shift for its keys
as `degree_shift`, and `degrees` is the one function that applies the rule.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Iterator, Mapping

from .errors import InhomogeneousInput, InvalidInput, VariableMismatch
from .scalar import SCALAR_TYPES, LinearCombination, Scalar, accumulate, exact, power

ExpVec = tuple[int, ...]


def exponent_vectors(total: int, n: int) -> Iterator[ExpVec]:
    """Exponent vectors of the monomials of degree `total` in n variables,
    first exponent descending (lexicographically decreasing)."""
    if n == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in exponent_vectors(total - first, n - 1):
            yield (first,) + rest


def _new_over_variables(self, terms: dict):
    """`_new` of a class whose context is its variable list."""
    out = object.__new__(type(self))
    out._terms = terms
    out._hash = None
    out.variables = self.variables
    return out


class LaurentElement(LinearCombination):
    """Laurent polynomial in named coordinates with scalar coefficients."""

    __slots__ = ("variables",)
    _new = _new_over_variables

    def __init__(self, variables: tuple[str, ...], terms: Mapping[ExpVec, Scalar] | None = None):
        self.variables = tuple(variables)
        clean: dict[ExpVec, Scalar] = {}
        if terms:
            for exp, coeff in terms.items():
                c = exact(coeff)
                if c:
                    if len(exp) != len(self.variables):
                        raise VariableMismatch("exponent vector length mismatch")
                    clean[tuple(exp)] = c
        super().__init__(clean)

    # -- constructors ------------------------------------------------

    @staticmethod
    def constant(variables: tuple[str, ...], value: Scalar) -> "LaurentElement":
        n = len(variables)
        return LaurentElement(variables, {(0,) * n: value})

    @staticmethod
    def monomial(variables: tuple[str, ...], exponents: Iterable[int],
                 coeff: Scalar = 1) -> "LaurentElement":
        return LaurentElement(variables, {tuple(exponents): coeff})

    @staticmethod
    def coordinate(variables: tuple[str, ...], i: int) -> "LaurentElement":
        exp = [0] * len(variables)
        exp[i - 1] = 1
        return LaurentElement(variables, {tuple(exp): 1})

    # -- queries -----------------------------------------------------

    def min_exponent(self, i: int) -> int | None:
        """Smallest exponent of coordinate i across terms, None for zero."""
        if not self._terms:
            return None
        return min(exp[i - 1] for exp in self._terms)

    def constant_term(self) -> Scalar:
        zero_exp = (0,) * len(self.variables)
        return self._terms.get(zero_exp, 0)

    # -- products ------------------------------------------------------

    def __mul__(self, other) -> "LaurentElement":
        if isinstance(other, SCALAR_TYPES):
            return self.scale(other)
        self._check(other)
        return self._new(mul_into({}, self, other))

    def __rmul__(self, other) -> "LaurentElement":
        return self.scale(other)

    def __pow__(self, n: int) -> "LaurentElement":
        """self ** n.  Zero or a one-term element takes one step for any n,
        negative too: exponents times n, coefficient to the n (`power`).  A
        sum of terms is multiplied out n times."""
        if n < 0 and len(self._terms) != 1:
            raise InvalidInput("negative power of zero or of a non-monomial")
        if n == 0:
            return LaurentElement.constant(self.variables, 1)
        if len(self._terms) <= 1:
            return self._new({tuple(e * n for e in exp): power(c, n)
                              for exp, c in self._terms.items()})
        out = LaurentElement.constant(self.variables, 1)
        for _ in range(n):
            out = out * self
        return out

    def derive(self, i: int) -> "LaurentElement":
        """Partial derivative d/dy_i, including negative exponents.

        The element is immutable, so each partial is computed once and kept on
        it, in the `_partials` slot, created here on first use."""
        try:
            partials = self._partials
        except AttributeError:
            partials = self._partials = {}
        out = partials.get(i)
        if out is None:
            out = partials[i] = self._new(
                {exp[:i - 1] + (exp[i - 1] - 1,) + exp[i:]: c * exp[i - 1]
                 for exp, c in self._terms.items() if exp[i - 1]})
        return out

    # -- printing ------------------------------------------------------

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


class OneForm(LinearCombination):
    """Sum g_j dy_j, components keyed by 1-based coordinate index."""

    __slots__ = ("variables",)
    _new = _new_over_variables
    degree_shift = staticmethod(lambda j: 1)

    def __init__(self, variables: tuple[str, ...], components: Mapping | None = None):
        self.variables = tuple(variables)
        clean = {}
        for j, g in (components or {}).items():
            if g:
                if g.variables != self.variables:
                    raise VariableMismatch("component over wrong variable list")
                clean[j] = g
        super().__init__(clean)

    def __repr__(self):
        if not self._terms:
            return "0"
        return " + ".join(f"({g})*d{self.variables[j - 1]}"
                          for j, g in sorted(self._terms.items()))


def mul_into(out: dict, f: LaurentElement, g: LaurentElement,
             negate: bool = False) -> dict:
    """Add f*g, or -f*g when negate, term by term into the exponent dict out
    (canonical terms of one variable list); returns out."""
    for e1, c1 in f._terms.items():
        for e2, c2 in g._terms.items():
            c = c1 * c2
            accumulate(out, tuple(map(add, e1, e2)), -c if negate else c)
    return out


# -- exterior calculus ---------------------------------------------------


def de_rham(f: LaurentElement) -> OneForm:
    """The de Rham differential d: A -> Omega(A)."""
    n = len(f.variables)
    return OneForm(f.variables, {j: f.derive(j) for j in range(1, n + 1)})


# -- grading --------------------------------------------------------------


def degrees(obj) -> set[int]:
    """The internal degrees of the monomials of a function, or of a one-form
    or weight-one section (whose class declares `degree_shift`)."""
    if isinstance(obj, LaurentElement):
        return {sum(exp) for exp in obj._terms}
    shift = obj.degree_shift
    return {sum(exp) + shift(key) for key, f in obj._terms.items() for exp in f._terms}


def homogeneous_degree(obj) -> int | None:
    """The common internal degree of obj's monomials, None for zero; mixed
    degrees raise InhomogeneousInput."""
    degs = degrees(obj)
    if len(degs) > 1:
        raise InhomogeneousInput(f"input has mixed internal degrees {sorted(degs)}")
    return next(iter(degs), None)
