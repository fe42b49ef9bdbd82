"""Exact weight-truncated free-field engine over Laurent chart rings.

The state space is a Fock module for n pairs of commuting fields: a weight-0
coordinate field per variable and its weight-1 conjugate frame field.  A
basis state is a Laurent monomial in the zero modes times a multiset of
creation symbols; every _(n) product is computed recursively from the axioms
(vacuum, translation, skew-symmetry, Jacobi, quasi-associativity), so this
module is the ground truth the structured algebroid layer is checked against.

Creation symbols are normalized divided translates:
    ('y', i, m)  <->  T^m(y_i)/m!        conformal weight m,  m >= 1
    ('d', i, m)  <->  T^m(dual_i)/m!     conformal weight m+1, m >= 0
where dual_i is the frame field paired with y_i.  Negative zero-mode
exponents are allowed: the inverse coordinate is a genuine state and its
modes are computed from the inverse of the coordinate field.

Each FreeFieldAlgebra keeps a product table.  The mode n of a basis word is
linear in the state it acts on, so the kernel splits a state into basis
states and computes the word's mode on each one once, with coefficient 1;
later products scale the stored result by the state's coefficient.  Every
factor of the recursion (contraction counts, zero-mode exponents, binomials
and multinomials) is an integer, so a stored result is a tuple of plain int
coefficients, exact by construction, cheap to multiply and with nothing to
share between entries.  An element's coefficients are scalars (see
`scalar`): a constant one is a plain int or Fraction, so scaling a stored
result by it runs on Python numbers, and only a coefficient that holds a
parameter is a ParamScalar.  Stored results are immutable and never handed
out, and the table has no size limit: it lives as long as its algebra.  A
product with an rng peels words in a random order and neither reads nor
writes the table, so comparing peel orders still checks the recursion
itself.

Without an rng each word is peeled by one fixed plan, made once per word and
kept on the algebra as plain data (no closure, so no reference cycle keeps
an algebra alive); so is each word's weight.

The zero rule: a nonnegative mode of a word vanishes on a state when nothing
contracts, i.e. no coordinate of the word (a nonzero exponent or a y symbol)
meets a frame symbol of the same variable in the state, and no frame symbol
of the word meets a coordinate of the state (Wick's theorem for these free
fields).  The table stores such an entry empty without recursing.  Proof by
induction over the peel: each quasi-associativity term applies either a
nonnegative mode of the shorter word, or a nonnegative (annihilation) mode
of the peeled factor, to a state with nothing to contract; both vanish.  For
an inverse coordinate, each B^k with k >= 1 needs a frame symbol in the
state, and its k = 0 term A^-1 has no z-power for modes n >= 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .errors import (
    InhomogeneousInput,
    InvalidInput,
    VariableMismatch,
    WeightBoundExceeded,
)
from .laurent import LaurentElement
from .scalar import LinearCombination, Scalar, accumulate, exact

Symbol = tuple[str, int, int]  # (class 'y'|'d', coordinate index, order m)
ExpVec = tuple[int, ...]
TermKey = tuple[ExpVec, tuple[Symbol, ...]]
# coefficients are scalars: ints and Fractions, or ParamScalars that hold a
# parameter; the product table's expansions hold ints only
Terms = dict[TermKey, Scalar]


def _sym_weight(s: Symbol) -> int:
    return s[2] if s[0] == "y" else s[2] + 1


def _sort_key(s: Symbol):
    # coordinate symbols before frame symbols; ascending index; descending order
    return (0 if s[0] == "y" else 1, s[1], -s[2])


def _term_weight(key: TermKey) -> int:
    return sum(_sym_weight(s) for s in key[1])


def _binom(l: int, m: int) -> int:
    """l choose m for any integer l: a product of m consecutive integers is
    divisible by m!, so the floor division is exact."""
    num = 1
    for t in range(m):
        num *= l - t
    return num // math.factorial(m)


def _multinomial(parts: tuple[int, ...]) -> int:
    """The number of distinct orderings of parts: len(parts)! over the
    factorial of each part's multiplicity, an exact integer division."""
    out = math.factorial(len(parts))
    for m in set(parts):
        out //= math.factorial(parts.count(m))
    return out


def _partitions(total: int):
    """All multisets of parts >= 1 summing to total, as sorted tuples."""
    if total == 0:
        yield ()
        return

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(total, total)


class FreeFieldAlgebra:
    """Context object: variable list plus the session conformal weight bound."""

    def __init__(self, variables: tuple[str, ...], max_weight: int = 3):
        self.variables = tuple(variables)
        self.n = len(self.variables)
        self.max_weight = max_weight
        self._zero_exp = (0,) * self.n
        # (alpha, tail, n, basis state) -> word mode on that state, unit
        # coefficient, as a tuple of (key, int coefficient)
        self._products: dict = {}
        # basis word (alpha, tail) -> its peel plan, and its `_shape`
        self._plans: dict = {}
        self._shapes: dict = {}

    # -- element constructors ------------------------------------------

    def element(self, terms: Mapping[TermKey, Scalar]) -> "FreeFieldElement":
        return FreeFieldElement(self, terms)

    def zero(self) -> "FreeFieldElement":
        return self.element({})

    def vacuum(self) -> "FreeFieldElement":
        return self.element({(self._zero_exp, ()): 1})

    def coordinate(self, i: int) -> "FreeFieldElement":
        exp = list(self._zero_exp)
        exp[i - 1] = 1
        return self.element({(tuple(exp), ()): 1})

    def frame(self, i: int) -> "FreeFieldElement":
        return self.element({(self._zero_exp, (("d", i, 0),)): 1})

    def from_laurent(self, f: LaurentElement) -> "FreeFieldElement":
        """The chart function f as a weight-0 element, one term (exp, ()) per
        term of f.  f's terms are canonical, so the element is built from
        them by `_new`, not coerced again."""
        if f.variables != self.variables:
            raise VariableMismatch("laurent element over wrong variable list")
        return self.zero()._new({(exp, ()): c for exp, c in f._terms.items()})

    def to_laurent(self, x: "FreeFieldElement") -> LaurentElement:
        """Inverse of from_laurent: the chart function of an element with no
        creation symbols, built from x's canonical terms by `_new`."""
        if x.variables != self.variables:
            raise VariableMismatch("element over wrong variable list")
        if any(tail for _, tail in x._terms):
            raise InvalidInput(f"{x} has creation symbols, so it is not a chart function")
        return LaurentElement(self.variables)._new(
            {alpha: c for (alpha, _), c in x._terms.items()})

    def virasoro_element(self) -> "FreeFieldElement":
        terms: Terms = {}
        for j in range(1, self.n + 1):
            tail = tuple(sorted([("y", j, 1), ("d", j, 0)], key=_sort_key))
            terms[(self._zero_exp, tail)] = 1
        return self.element(terms)

    # -- mode actions of the generating fields ---------------------------

    def _gen_mode(self, cls: str, i: int, p: int, terms: Terms) -> Terms:
        """Apply mode p of coordinate field i (cls 'y') or frame field i (cls 'd').

        The mode picks one of four actions, each a one-to-one map of basis
        states, so the terms need no accumulation:
        - mode -1 of the coordinate multiplies by y_i;
        - any other negative mode inserts the symbol (cls, i, -1 - p);
        - mode 0 of the frame differentiates in y_i;
        - any other mode removes one conjugate symbol, ('d', i, p) for the
          coordinate or ('y', i, p) for the frame, times -count or +count,
          where count is how often the state holds that symbol.
        """
        out: Terms = {}
        if cls == "y" and p == -1:
            for (alpha, tail), c in terms.items():
                out[alpha[:i - 1] + (alpha[i - 1] + 1,) + alpha[i:], tail] = c
        elif p < 0:
            sym = (cls, i, -1 - p)
            for (alpha, tail), c in terms.items():
                out[alpha, tuple(sorted(tail + (sym,), key=_sort_key))] = c
        elif cls == "d" and p == 0:
            for (alpha, tail), c in terms.items():
                if e := alpha[i - 1]:
                    out[alpha[:i - 1] + (e - 1,) + alpha[i:], tail] = c * e
        else:
            sym = ("d" if cls == "y" else "y", i, p)
            sign = -1 if cls == "y" else 1
            for (alpha, tail), c in terms.items():
                if count := tail.count(sym):
                    idx = tail.index(sym)
                    out[alpha, tail[:idx] + tail[idx + 1:]] = c * (sign * count)
        return out

    def _w_mode(self, i: int, n: int, terms: Terms) -> Terms:
        """Apply mode n of the inverse coordinate field for variable i.

        The coordinate field splits as creation part A(z) plus annihilation
        part B(z); all its modes commute, B is locally nilpotent, and the
        inverse field is the geometric series sum_k (-1)^k A^{-1-k} B^k.
        """
        out: Terms = {}
        layer: dict[int, Terms] = {0: dict(terms)}  # z-power -> terms
        k = 0
        while layer:
            for zpow, tl in layer.items():
                big = -n - 1 - zpow
                if big < 0:
                    continue
                for parts in _partitions(big):
                    l = len(parts)
                    factor = (-1) ** k * _binom(-1 - k, l) * _multinomial(parts)
                    syms = tuple(("y", i, m) for m in parts)
                    for (alpha, tail), coeff in tl.items():
                        new = list(alpha)
                        new[i - 1] -= 1 + k + l
                        newtail = tuple(sorted(tail + syms, key=_sort_key))
                        accumulate(out, (tuple(new), newtail), coeff * factor)
            # one more annihilation layer: B(z) contributes z^{-p-1} per mode p
            nxt: dict[int, Terms] = {}
            for zpow, tl in layer.items():
                orders = {s[2] for key in tl for s in key[1] if s[:2] == ("d", i)}
                for p in orders:
                    res = self._gen_mode("y", i, p, tl)
                    if res:
                        tgt = nxt.setdefault(zpow - p - 1, {})
                        for key, c in res.items():
                            accumulate(tgt, key, c)
            layer = {z: t for z, t in nxt.items() if t}
            k += 1
        return out

    # -- the recursive product kernel -----------------------------------

    def _peel(self, alpha: ExpVec, tail: tuple[Symbol, ...], rng=None):
        """Split a basis word as c_(-1) applied to a shorter word.

        Returns the plan (kind, i, m, c_weight, alpha', tail') as plain data:
        the peeled factor c is the symbol (kind, i, m) for kind 'y' or 'd',
        or the inverse coordinate 1/y_i for 'neg', and `_factor_mode` applies
        its modes.  A coordinate y_i is the order-0 symbol ('y', i, 0), since
        T^0(y_i)/0! = y_i.  Inverse coordinates are peeled only once the
        symbol tail is empty, where their modes act without contractions
        against frame symbols of the remainder.
        """
        choices = []
        for idx in range(len(tail)):
            choices.append(("sym", idx))
        for i in range(1, self.n + 1):
            if alpha[i - 1] > 0:
                choices.append(("y", i))
        if not tail:
            for i in range(1, self.n + 1):
                if alpha[i - 1] < 0:
                    choices.append(("neg", i))
        pick = rng.choice(choices) if rng is not None else choices[-1]
        kind, val = pick
        if kind == "sym":
            sym = tail[val]
            return (*sym, _sym_weight(sym), alpha, tail[:val] + tail[val + 1:])
        new = list(alpha)
        new[val - 1] += -1 if kind == "y" else 1
        return kind, val, 0, 0, tuple(new), tail

    def _factor_mode(self, kind: str, i: int, m: int, l: int, terms: Terms) -> Terms:
        """Apply mode l of a peeled factor, named as in a `_peel` plan.  Mode l
        of the symbol (kind, i, m) is (-1)^m binom(l, m) times mode l - m of
        its field; a factor of 1 (every coordinate) returns that result as is."""
        if kind == "neg":
            return self._w_mode(i, l, terms)
        factor = (-1) ** m * _binom(l, m)
        if factor == 0:
            return {}
        res = self._gen_mode(kind, i, l - m, terms)
        if factor == 1:
            return res
        return {key: c * factor for key, c in res.items()}

    def _shape(self, key: TermKey) -> tuple[int, int, int]:
        """The weight of a basis word, and bit masks of the variables whose
        coordinate (a nonzero exponent or a y symbol) and whose frame field
        (a d symbol) occur in it; computed once per word."""
        shape = self._shapes.get(key)
        if shape is None:
            alpha, tail = key
            ys = sum(1 << i for i, e in enumerate(alpha, 1) if e)
            ys |= sum({1 << i for cls, i, _ in tail if cls == "y"})  # distinct bits
            ds = sum({1 << i for cls, i, _ in tail if cls == "d"})
            shape = self._shapes[key] = (_term_weight(key), ys, ds)
        return shape

    def _word_mode(self, alpha: ExpVec, tail: tuple[Symbol, ...], n: int,
                   terms: Terms, rng=None) -> Terms:
        """Apply mode n of the basis word (alpha, tail) to a homogeneous state.

        The map is linear in terms, so without rng it is assembled from the
        product table: one unit-coefficient result per basis state, computed
        on first use, or stored empty at once for a nonnegative mode with
        nothing to contract.  With rng the peel order is random and the table
        is neither read nor written.
        """
        if not terms:
            return {}
        if not tail and alpha == self._zero_exp:
            return dict(terms) if n == -1 else {}
        wt_b = self._shape(next(iter(terms)))[0]
        wt_a, ys, ds = self._shape((alpha, tail))
        if wt_a + wt_b - n - 1 < 0:
            return {}
        if rng is not None:
            return self._expand(alpha, tail, n, terms, wt_b, rng)
        products = self._products
        out: Terms = {}
        for key, coeff in terms.items():
            entry = (alpha, tail, n, key)
            unit = products.get(entry)
            if unit is None:
                _, state_ys, state_ds = self._shape(key)
                if n >= 0 and not (ys & state_ds or ds & state_ys):
                    unit = ()  # nothing to contract: the zero rule
                else:
                    unit = tuple(self._expand(alpha, tail, n, {key: 1}, wt_b, None).items())
                products[entry] = unit
            for key2, c in unit:
                accumulate(out, key2, coeff * c)
        return out

    def _expand(self, alpha: ExpVec, tail: tuple[Symbol, ...], n: int,
                terms: Terms, wt_b: int, rng) -> Terms:
        """One quasi-associativity step: peel the word and recurse.  Without
        rng the word's peel plan is made once and kept."""
        if rng is not None:
            plan = self._peel(alpha, tail, rng)
        elif (plan := self._plans.get((alpha, tail))) is None:
            plan = self._plans[alpha, tail] = self._peel(alpha, tail)
        kind, i, m, wt_c, alpha2, tail2 = plan
        wt_rest = self._shape((alpha2, tail2))[0]
        out: Terms = {}
        # quasi-associativity: (c_(-1) a')_(n) =
        #   sum_{j>=0} c_(-1-j) a'_(n+j)  +  sum_{j>=1} a'_(n-j) c_(-1+j)
        j = 0
        while wt_rest + wt_b - (n + j) - 1 >= 0:
            inner = self._word_mode(alpha2, tail2, n + j, terms, rng)
            if inner:
                for key, c in self._factor_mode(kind, i, m, -1 - j, inner).items():
                    accumulate(out, key, c)
            j += 1
        for j in range(1, wt_c + wt_b + 1):
            inner = self._factor_mode(kind, i, m, -1 + j, terms)
            if inner:
                for key, c in self._word_mode(alpha2, tail2, n - j, inner, rng).items():
                    accumulate(out, key, c)
        return out


class FreeFieldElement(LinearCombination):
    """Weight-homogeneous exact sum of normally ordered basis words."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: FreeFieldAlgebra, terms: Mapping[TermKey, Scalar]):
        self.algebra = algebra
        clean: Terms = {}
        weight = None
        for key, coeff in terms.items():
            coeff = exact(coeff)
            if not coeff:
                continue
            alpha, tail = key
            key = (tuple(alpha), tuple(sorted(tail, key=_sort_key)))
            w = _term_weight(key)
            if weight is None:
                weight = w
            elif w != weight:
                raise InhomogeneousInput(
                    f"mixed conformal weights {weight} and {w} in one element"
                )
            accumulate(clean, key, coeff)
        super().__init__(clean)

    def _new(self, terms: Terms) -> "FreeFieldElement":
        out = object.__new__(type(self))
        out._terms = terms
        out._hash = None
        out.algebra = self.algebra
        return out

    @property
    def variables(self) -> tuple[str, ...]:
        return self.algebra.variables

    @property
    def weight(self) -> int | None:
        """The common conformal weight of the terms; None for zero."""
        return _term_weight(next(iter(self._terms))) if self._terms else None

    def _check(self, other: "FreeFieldElement") -> None:
        super()._check(other)
        if self._terms and other._terms and self.weight != other.weight:
            raise InhomogeneousInput(
                f"mixed conformal weights {self.weight} and {other.weight} in one element"
            )

    def __repr__(self) -> str:
        return f"FreeFieldElement({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        names = self.algebra.variables
        parts = []
        for (alpha, tail) in sorted(self._terms):
            c = self._terms[(alpha, tail)]
            factors = []
            for v, e in zip(names, alpha):
                if e:
                    factors.append(v if e == 1 else f"{v}^{e}")
            for cls, i, m in tail:
                base = names[i - 1] if cls == "y" else f"d{i}"
                factors.append(base if (cls == "d" and m == 0) else f"T{m}({base})")
            body = "*".join(factors) or "1"
            cs = str(c)
            if " " in cs:
                cs = f"({cs})"
            parts.append(body if cs == "1" else f"{cs}*{body}")
        return " + ".join(parts)


# -- public operations -----------------------------------------------------


def nproduct(a: FreeFieldElement, n: int, b: FreeFieldElement,
             rng=None) -> FreeFieldElement:
    """The _(n) product, computed recursively from the defining axioms."""
    alg = a.algebra
    LinearCombination._check(a, b)  # variables only: factors may differ in weight
    if a.is_zero() or b.is_zero():
        return alg.zero()
    rw = a.weight + b.weight - n - 1
    if rw < 0:
        return alg.zero()
    if rw > alg.max_weight:
        raise WeightBoundExceeded(
            f"result weight {rw} exceeds bound {alg.max_weight}"
        )
    out: Terms = {}
    for (alpha, tail), coeff in a._terms.items():
        for key, c in alg._word_mode(alpha, tail, n, b._terms, rng).items():
            accumulate(out, key, coeff * c)
    return a._new(out)


def translate(a: FreeFieldElement) -> FreeFieldElement:
    """The translation operator T, a derivation of the normal ordering."""
    alg = a.algebra
    if a.is_zero():
        return a
    if a.weight + 1 > alg.max_weight:
        raise WeightBoundExceeded(
            f"result weight {a.weight + 1} exceeds bound {alg.max_weight}"
        )
    out: Terms = {}
    for (alpha, tail), coeff in a._terms.items():
        for i in range(1, alg.n + 1):
            e = alpha[i - 1]
            if e:
                new = list(alpha)
                new[i - 1] = e - 1
                newtail = tuple(sorted(tail + (("y", i, 1),), key=_sort_key))
                accumulate(out, (tuple(new), newtail), coeff * e)
        for idx, (cls, i, m) in enumerate(tail):
            lst = list(tail)
            lst[idx] = (cls, i, m + 1)
            newtail = tuple(sorted(lst, key=_sort_key))
            accumulate(out, (alpha, newtail), coeff * (m + 1))
    return a._new(out)


def translate_power(a: FreeFieldElement, j: int) -> FreeFieldElement:
    """T^j(a)/j!, the divided translate."""
    out = a
    for _ in range(j):
        out = translate(out)
    return out.scale(Fraction(1, math.factorial(j)))


def axiom_defect(kind: str, *args) -> FreeFieldElement:
    """LHS minus RHS of a named axiom instance; zero means the axiom holds."""
    if kind == "vacuum":
        (a,) = args
        vac = a.algebra.vacuum()
        return nproduct(a, -1, vac) - a
    if kind == "translation":
        a, n, b = args
        return nproduct(translate(a), n, b) + nproduct(a, n - 1, b).scale(n)
    if kind == "skew":
        a, n, b = args
        lhs = nproduct(a, n, b)
        alg = a.algebra
        rhs = alg.zero()
        j = 0
        while b.weight + a.weight - (n + j) - 1 >= 0:
            term = nproduct(b, n + j, a)
            if not term.is_zero():
                rhs = rhs + translate_power(term, j).scale((-1) ** (n + 1 + j))
            j += 1
        return lhs - rhs
    if kind == "jacobi":
        a, m, b, n, c = args
        alg = a.algebra
        lhs = nproduct(a, m, nproduct(b, n, c)) - nproduct(b, n, nproduct(a, m, c))
        rhs = alg.zero()
        j = 0
        while a.weight + b.weight - j - 1 >= 0:
            coeff = _binom(m, j)
            if coeff:
                inner = nproduct(a, j, b)
                if not inner.is_zero():
                    rhs = rhs + nproduct(inner, m + n - j, c).scale(coeff)
            j += 1
        return lhs - rhs
    if kind == "quasi_assoc":
        a, b, c, n = args
        alg = a.algebra
        lhs = nproduct(nproduct(a, -1, b), n, c)
        rhs = alg.zero()
        j = 0
        while b.weight + c.weight - (n + j) - 1 >= 0:
            inner = nproduct(b, n + j, c)
            if not inner.is_zero():
                rhs = rhs + nproduct(a, -1 - j, inner)
            j += 1
        for j in range(1, a.weight + c.weight + 1):
            inner = nproduct(a, -1 + j, c)
            if not inner.is_zero():
                rhs = rhs + nproduct(b, n - j, inner)
        return lhs - rhs
    raise InvalidInput(f"unknown axiom kind {kind!r}")


def random_element(alg: FreeFieldAlgebra, rng, max_weight: int) -> FreeFieldElement:
    """A nonzero seeded random element of weight between 0 and max_weight.

    One or two basis words with zero-mode exponents in -1..2, random creation
    symbols and coefficients in -3..3.  The draws depend only on rng and the
    number of variables, so a seed fixes the sequence of elements.
    """
    n = alg.n
    while True:
        wt = rng.randint(0, max_weight)
        out = alg.zero()
        for _ in range(rng.randint(1, 2)):
            alpha = tuple(rng.randint(-1, 2) for _ in range(n))
            tail, rem = [], wt
            while rem > 0:
                if rng.random() < 0.5:
                    m = rng.randint(1, rem)
                    tail.append(("y", rng.randint(1, n), m))
                    rem -= m
                else:
                    m = rng.randint(0, rem - 1)
                    tail.append(("d", rng.randint(1, n), m))
                    rem -= m + 1
            out = out + alg.element({(alpha, tuple(tail)): rng.randint(-3, 3)})
        if not out.is_zero():
            return out


def frame_filtration_part(a: FreeFieldElement, degree: int) -> FreeFieldElement:
    """Terms whose count of frame-field symbols is exactly the given degree.

    The frame-symbol count is the filtration degree whose associated graded
    carries the quasiclassical (Poisson) vertex structure; projecting a
    product onto its expected top degree extracts the classical value.
    """
    return a._new({key: c for key, c in a._terms.items()
                   if sum(1 for s in key[1] if s[0] == "d") == degree})


def conformal_invariance_defect(xi: FreeFieldElement) -> FreeFieldElement:
    """Leading part of xi_(0)L for a weight-1 field xi and the conformal element L.

    Vanishes for every xi = sum f_i applied to frame fields with polynomial
    f_i: the quantum product xi_(0)L is a pure second translate (one
    filtration step down), so its frame-symbol component, the value in the
    quasiclassical limit, is zero.
    """
    full = nproduct(xi, 0, xi.algebra.virasoro_element())
    return frame_filtration_part(full, 1)
