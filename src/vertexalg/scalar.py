"""Exact coefficient arithmetic: rationals extended by formal parameters.

Every exact object of the package is a LinearCombination: a sparse map
{key: value} that never stores a zero value.  ParamScalar (here), the Laurent
elements and one-forms of `laurent`, the weight-one sections of `algebroid`,
the gluing forms of `geometry` and the Fock elements of `freefield` share its
sum, difference, negation, scaling, equality and hashing; a difference is
the sum with the negation, so one loop adds every term.  Canonical form
is enforced in two places only: each public constructor checks what it is
given, coerces every scalar through `exact` and drops zeros, and every sum
goes through `accumulate`, which drops a key whose value cancels.
Arithmetic results are built by `LinearCombination._new` from terms that are
already canonical, so they are never coerced or checked again.  So are the
builders that only rearrange canonical terms: the derivation basis
components (`veronese.derivations`, each a monomial y^(chi + e_b) with the
int 1 as its coefficient), `FreeFieldAlgebra.from_laurent` and
`to_laurent`, and `algebroid.embed` keep their own checks and build with
`_new`, not through a public constructor.  `_new` makes one object per
result and stores its context (the variable list, the chart, the algebra)
directly: a class with context overrides `_new` to set those slots, and a
result never inherits the `_partials` of its operand.

A scalar, the coefficient of every other module, is an int, a Fraction, or a
ParamScalar, a polynomial in formal parameters (k, gluing coefficients c_ab,
...) with rational coefficients, only while it holds a parameter.  A public
constructor stores an int for an integral rational and a Fraction for any
other; arithmetic on Fractions may leave an integral Fraction (1/2 + 1/2),
which equals and hashes as its int.  `exact` is the one coercion of the
public constructors, and ParamScalar arithmetic, like its constructor,
returns the plain number once no parameter is left, so `k - k + 1` is 1 and
a constant product runs on Python ints.  A coefficient is never a float: the
program divides only through Fraction, in `power` (every negative power: of
a number, of a Laurent monomial, and the CLI's), in `row_reduce` and in
scaling by a Fraction.  The module helpers `power`, `constant_value` and
`substitute` accept any scalar.

`row_reduce`, the one exact elimination, takes augmented rows {column:
coefficient, RHS: right-hand side}: the right-hand side is the last column.
`solve_linear_system` checks a unique solution against every row it built,
so no printed charge or level rests on the elimination alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

from .errors import (InvalidInput, NonlinearCondition, NonScalarDivisor, VariableMismatch,
                     VertexAlgError)

# A parameter monomial: sorted tuple of (name, positive exponent).
Monomial = tuple[tuple[str, int], ...]

RationalLike = Union[int, Fraction]
Scalar = Union[int, Fraction, "ParamScalar"]

# The key of the right-hand side in an augmented row: it sorts after every
# column, so it is the last column of the elimination.
RHS = math.inf


def accumulate(acc: dict, key, value) -> None:
    """acc[key] += value, in place, dropping the key when the sum is zero."""
    if key in acc:
        value = acc[key] + value
    if value:
        acc[key] = value
    else:
        acc.pop(key, None)


class LinearCombination:
    """Canonical sparse map {key: value} with no zero value stored.

    Values are scalars or combinations themselves.  A subclass lists its
    context (what both operands must share, e.g. the variable list) in its own
    __slots__ and overrides `_new` to store that context, taken from the left
    operand, on the result; a class without context (GluingForm) uses `_new`
    as it is.  Operands must agree on `variables`; a subclass adds to
    `_check`.  Instances are immutable and hashable.  Two slots hold values
    derived from the terms alone, filled on first use and never set by
    `_new`: `_hash`, and `_partials`, the partial derivatives a
    LaurentElement keeps.
    """

    __slots__ = ("_terms", "_hash", "_partials")

    def __init__(self, terms: dict):
        """Adopt terms already in canonical form (a public constructor's last step)."""
        self._terms = terms
        self._hash = None

    def _new(self, terms: dict):
        """A result of self's type from canonical terms: nothing is checked.
        A subclass with context overrides this to store its context too."""
        out = object.__new__(type(self))
        out._terms = terms
        out._hash = None
        return out

    # -- queries -----------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other) -> None:
        """Raise unless other may be added to self."""
        if self.variables != other.variables:
            raise VariableMismatch(
                f"variable lists differ: {self.variables} vs {other.variables}")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for key, value in other._terms.items():
            accumulate(out, key, value)
        return self._new(out)

    def __neg__(self):
        return self._new({key: -value for key, value in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + -other

    def scale(self, c):
        """Every value times c: a number for a ParamScalar, a scalar for the
        other types, or a ring element for a form; vanishing products drop."""
        return self._new({key: p for key, value in self._terms.items()
                          if (p := value * c)})

    # -- protocol ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.variables, frozenset(self._terms.items())))
        return self._hash


def _mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1 or not m2:
        return m1 or m2
    exps = dict(m1)
    for name, e in m2:
        accumulate(exps, name, e)
    return tuple(sorted(exps.items()))


class ParamScalar(LinearCombination):
    """Polynomial in formal parameters over the rationals, canonical form,
    holding at least one parameter.

    Keys are parameter monomials (unique, sorted by name), values nonzero
    ints or Fractions.  The constructor and every operation return the plain
    number instead when no parameter is left: 0 for no term and c for the
    single term {(): c}.  A number operand is used as it is: it scales, or it
    adds at the () key.  Only + and - can cancel a parameter, because a
    product of two polynomials that each hold one holds one too.  So a
    ParamScalar never equals a number, and hashes by its terms alone.
    """

    __slots__ = ()
    variables = ()  # a scalar lives over no coordinates

    def __new__(cls, terms: Mapping[Monomial, RationalLike] | None = None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            if not isinstance(coeff, (int, Fraction)):
                raise InvalidInput(f"coefficient {coeff!r} is not exact: "
                                   "use an int or a Fraction")
            if coeff:
                clean[mono] = int(coeff) if coeff.denominator == 1 else coeff
        return ParamScalar._new(clean)

    def __init__(self, terms=None):
        """Nothing left to do: `__new__` built the scalar."""

    def __reduce__(self):
        return ParamScalar, (self._terms,)

    @staticmethod
    def _new(terms: dict) -> Scalar:
        """The scalar of canonical terms: 0 for none, the number c for the
        single term {(): c}, else a ParamScalar."""
        if len(terms) <= 1:
            if not terms:
                return 0
            if () in terms:
                return terms[()]
        out = object.__new__(ParamScalar)
        out._terms = terms
        out._hash = None
        return out

    @staticmethod
    def var(name: str) -> "ParamScalar":
        return ParamScalar({((name, 1),): 1})

    # -- queries -----------------------------------------------------

    def is_constant(self) -> bool:
        """Whether every monomial is (): never, for a canonical scalar (the
        benchmark's tracer still asks)."""
        return all(m == () for m in self._terms)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> Scalar:
        out = dict(self._terms)
        if type(other) is ParamScalar:
            for key, value in other._terms.items():
                accumulate(out, key, value)
        elif isinstance(other, (int, Fraction)):
            accumulate(out, (), other)
        else:
            return NotImplemented
        return self._new(out)

    __radd__ = __add__

    def __sub__(self, other) -> Scalar:
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        return self + -other

    def __rsub__(self, other) -> Scalar:
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __mul__(self, other) -> Scalar:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not ParamScalar:
            return NotImplemented
        out: dict[Monomial, RationalLike] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                accumulate(out, _mul_monomials(m1, m2), c1 * c2)
        return self._new(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Scalar:
        """self * (Fraction(1) / other), kept for the benchmark's tracer."""
        return self.scale(Fraction(1) / other)

    def __pow__(self, n: int) -> Scalar:
        """self ** n for n >= 0; a single monomial c*k^a takes one step,
        c^n * k^(a*n), whatever n.  A scalar that holds a parameter has no
        negative power."""
        if n < 0:
            raise InvalidInput(f"negative power of {self}, which is not "
                               "a nonzero constant")
        if n == 0:
            return 1
        if len(self._terms) == 1:
            return self._new({tuple((name, e * n) for name, e in mono): c ** n
                              for mono, c in self._terms.items()})
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def substitute(self, assignment: Mapping[str, Scalar]) -> Scalar:
        """Substitute values (any scalars) for some parameters."""
        out = 0
        for mono, coeff in self._terms.items():
            value = coeff
            for name, e in mono:
                if name in assignment:
                    value = value * power(exact(assignment[name]), e)
                else:
                    value = value * ParamScalar({((name, e),): 1})
            out = out + value
        return out

    def __eq__(self, other) -> bool:
        if type(other) is ParamScalar:
            return self._terms == other._terms
        return False if isinstance(other, (int, Fraction)) else NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- printing ------------------------------------------------------

    def __repr__(self) -> str:
        return f"ParamScalar({self})"

    def __str__(self) -> str:
        parts = []
        for mono in sorted(self._terms):
            c = self._terms[mono]
            factors = "*".join(
                name if e == 1 else f"{name}^{e}" for name, e in mono
            )
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(factors)
            elif c == -1:
                parts.append(f"-{factors}")
            else:
                parts.append(f"{c}*{factors}")
        out = parts[0]
        for p in parts[1:]:
            out += f" + {p}" if not p.startswith("-") else f" - {p[1:]}"
        return out


SCALAR_TYPES = (int, Fraction, ParamScalar)


def exact(value) -> Scalar:
    """The one coercion of every public constructor: an int for an integral
    value (a bool or Fraction(2, 1) too), a Fraction for any other rational,
    and a ParamScalar as it is, since it always holds a parameter; anything
    else, a float or a string, is InvalidInput."""
    if type(value) is int or type(value) is ParamScalar:
        return value
    if not isinstance(value, (int, Fraction)):
        raise InvalidInput(f"coefficient {value!r} is not exact: "
                           "use an int, a Fraction or a ParamScalar")
    return int(value) if value.denominator == 1 else value


def power(x: Scalar, n: int) -> Scalar:
    """x ** n for any scalar x and integer n.  A negative power of a nonzero
    number goes through Fraction, since int ** -n is a float; zero and a
    scalar that holds a parameter have none (InvalidInput)."""
    if type(x) is ParamScalar:
        return x ** n
    if n < 0:
        if not x:
            raise InvalidInput(f"negative power of {x}, which is not a nonzero constant")
        return exact(Fraction(x) ** n)
    return exact(x ** n)


def constant_value(x: Scalar) -> RationalLike:
    """The number x; a scalar that holds a parameter raises NonScalarDivisor."""
    if type(x) is ParamScalar:
        raise NonScalarDivisor(f"{x} is not a constant")
    return x


def substitute(x: Scalar, assignment: Mapping[str, Scalar]) -> Scalar:
    """x with values substituted for some parameters; a number is unchanged."""
    return x.substitute(assignment) if type(x) is ParamScalar else x


class LinearSolution(NamedTuple):
    """Outcome of an exact affine-linear solve in the formal parameters.

    Assignment values are scalars: numbers, or ParamScalars that involve the
    parameters that were not solved for.
    """

    status: str  # "unique" | "underdetermined" | "inconsistent"
    assignment: dict[str, Scalar] | None = None


def _augmented_row(eq: Scalar, unknowns: list[str]) -> dict:
    """The augmented row of the equation eq = 0, exact, or raise.

    {i: coefficient of unknowns[i], RHS: -(the constant part)}, sparse.  The
    constant part may involve parameters outside the unknown list; the
    unknowns themselves must enter with rational coefficients.  A number is
    all constant.
    """
    if type(eq) is not ParamScalar:
        return {RHS: -eq} if eq else {}
    index = {name: i for i, name in enumerate(unknowns)}
    row: dict = {}
    const: dict[Monomial, RationalLike] = {}
    for mono, c in eq._terms.items():
        touched = [(name, e) for name, e in mono if name in index]
        if not touched:
            const[mono] = -c
            continue
        if len(touched) > 1 or touched[0][1] > 1 or len(mono) > 1:
            raise NonlinearCondition("nonlinear condition")
        accumulate(row, index[touched[0][0]], c)
    if const:
        row[RHS] = eq._new(const)
    return row


class Echelon(NamedTuple):
    """Reduced row echelon form of a sparse rational system  A x = b.

    `rows` maps each pivot column, in increasing order, to its row: 1 at the
    pivot, nothing to its left and 0 in every other pivot column; no row holds
    the RHS key.  `rhs` maps every pivot column to its right-hand side, 0 when
    it has none.  `residuals` are the nonzero right-hand sides of the rows
    that reduced to zero; the system is consistent exactly when they all
    vanish.  Every stored coefficient is an int or a Fraction: integer input
    stays int wherever no pivot other than 1 or -1 divides it.
    """

    rows: dict[int, dict[int, RationalLike]]
    rhs: dict[int, Scalar]
    residuals: list[Scalar]

    @property
    def rank(self) -> int:
        return len(self.rows)


def _subtract(row: dict, f: RationalLike, other: dict) -> None:
    """row -= f * other, in place, dropping entries that cancel."""
    f = -f
    for c, x in other.items():
        accumulate(row, c, f * x)


def row_reduce(rows: Iterable[Mapping]) -> Echelon:
    """Exact Gauss-Jordan elimination of sparse augmented rows
    {column: coefficient, RHS: right-hand side}.

    The right-hand side is the last column, since RHS sorts after every
    column, so it follows every row operation.  Rows are taken in turn: each
    is reduced by the pivot rows found so far; whatever is left makes its
    leftmost column a new pivot, which is then cleared from the earlier pivot
    rows.  A pivot thus stays the leftmost entry of its row, so the result is
    the reduced row echelon form, which the row space and the column order
    determine uniquely.  A row that reduces to its RHS entry alone is a
    residual, and RHS is never a pivot.  The input rows are not changed.

    Coefficients are ints or Fractions, a right-hand side is any scalar, and
    both are kept as given.  A new pivot row is
    left alone when its pivot is 1, negated when it is -1, and otherwise
    multiplied by Fraction(1) / pivot, so integer rows with unit pivots are
    eliminated on ints and no value is ever a float.
    """
    pivots: dict[int, dict] = {}
    residuals: list[Scalar] = []
    for entries in rows:
        row = {c: x for c, x in entries.items() if x}
        for col in [c for c in row if c in pivots]:
            _subtract(row, row[col], pivots[col])
        col = min(row, default=RHS)
        if col == RHS:
            if row:
                residuals.append(row[RHS])
            continue
        p = row[col]
        if p == -1:
            row = {c: -x for c, x in row.items()}
        elif p != 1:
            inv = Fraction(1) / p
            row = {c: x * inv for c, x in row.items()}
        for prow in pivots.values():
            f = prow.get(col)
            if f:
                _subtract(prow, f, row)
        pivots[col] = row
    rhs = {c: pivots[c].pop(RHS, 0) for c in sorted(pivots)}
    return Echelon({c: pivots[c] for c in rhs}, rhs, residuals)


def solve_linear_system(
    equations: Iterable[Scalar], unknowns: list[str]
) -> LinearSolution:
    """Classify and solve an affine-linear system in the given parameters.

    Exact elimination by row_reduce, on the ints and Fractions of the
    coefficients as they stand: a pivot other than 1 or -1 divides through
    Fraction, never through float division.  Returns a unique
    assignment, or flags the system underdetermined / inconsistent.  A
    unique assignment is checked against every equation before it is
    returned, and one that violates an equation raises VertexAlgError.
    """
    rows = [_augmented_row(eq, unknowns) for eq in equations]
    echelon = row_reduce(rows)
    if echelon.residuals:
        return LinearSolution("inconsistent")
    if echelon.rank < len(unknowns):
        return LinearSolution("underdetermined")
    values = echelon.rhs
    for row in rows:
        if sum((x * values[c] for c, x in row.items() if c != RHS), 0) != row.get(RHS, 0):
            raise VertexAlgError("the solved values violate an equation of the system")
    return LinearSolution("unique", {unknowns[c]: b for c, b in values.items()})
