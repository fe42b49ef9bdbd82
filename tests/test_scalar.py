import ast
import copy
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

import vertexalg
from vertexalg.algebroid import WeightOneElement, embed, extract, fock_algebra, vprod
from vertexalg.errors import InvalidInput, NonlinearCondition, NonScalarDivisor, VertexAlgError
from vertexalg.freefield import nproduct
from vertexalg.geometry import GluingForm, transition
from vertexalg.laurent import LaurentElement, OneForm
from vertexalg.scalar import (
    LinearCombination,
    ParamScalar,
    constant_value,
    exact,
    power,
    solve_linear_system,
    substitute,
)
from vertexalg.veronese import build_model, derivations


def random_scalar(rng, names=("k", "c")):
    out = 0
    for _ in range(rng.randint(1, 4)):
        mono = exact(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for _ in range(rng.randint(0, 2)):
            mono = mono * ParamScalar.var(rng.choice(names))
        out = out + mono
    return out


def test_rational_arithmetic():
    k = ParamScalar.var("k")
    half_plus_k = k + Fraction(1, 2)
    assert half_plus_k + (Fraction(1, 3) - k) == Fraction(5, 6)
    assert type(half_plus_k + (Fraction(1, 3) - k)) is Fraction


def test_parameter_cancellation():
    k = ParamScalar.var("k")
    assert k * k - k * k == 0 and type(k * k - k * k) is int
    assert (k + 1) * (k - 1) - (k * k - 1) == 0
    assert k - k + 1 == 1 and type(k - k + 1) is int


def test_affine_specialization():
    # N - 1 - 2r - k at N=2, r=0 reads 1 - k
    k = ParamScalar.var("k")
    expr = 2 - 1 - 0 - k
    assert expr == 1 - k


def test_substitute():
    k = ParamScalar.var("k")
    expr = k * k - 2 * k
    assert expr.substitute({"k": 3}) == 3 and type(expr.substitute({"k": 3})) is int
    partial = (k * ParamScalar.var("c")).substitute({"c": 2})
    assert partial == 2 * k


def test_negative_powers():
    assert power(2, -1) == Fraction(1, 2)
    assert power(Fraction(-2, 3), -2) == Fraction(9, 4)
    assert power(5, 0) == 1
    k = ParamScalar.var("k")
    for base in (0, k, k + 1):
        with pytest.raises(InvalidInput):
            power(base, -1)
    with pytest.raises(InvalidInput):
        _ = k ** -1


def test_monomial_powers_take_one_step():
    rng = random.Random(1304)
    k, c = ParamScalar.var("k"), ParamScalar.var("c")
    bases = [0, 1, exact(Fraction(-2, 3)), k, k * k * c * Fraction(3, 2),
             k + 1] + [random_scalar(rng) for _ in range(10)]
    for base in bases:
        out = 1
        for n in range(6):
            assert power(base, n) == out, (base, n)
            out = out * base
    # c*k^a to a huge n is c^n * k^(a*n), at once
    huge = 10 ** 20
    assert (-k * k * c) ** huge == ParamScalar({(("c", huge), ("k", 2 * huge)): 1})
    assert power(0, huge) == 0 and power(0, 0) == 1


def test_division_and_negative_powers_stay_exact():
    # on ints, 2 ** -1 would be a float
    assert power(2, -1) == Fraction(1, 2)
    for value in (power(2, -1), power(-2, -3)):
        assert type(value) is Fraction
    f = LaurentElement.monomial(("y1", "y2"), (1, 0), 2) ** -1
    assert f.terms == {(-1, 0): Fraction(1, 2)}
    assert type(f.terms[(-1, 0)]) is Fraction


def test_no_float_is_ever_stored_random():
    rng = random.Random(23)

    def operand():
        if rng.random() < 0.5:
            return rng.randint(-4, 4)
        return random_scalar(rng)

    for _ in range(500):
        a, b = operand(), operand()
        rational = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)])
        divisor = rng.choice([rng.randint(1, 5), Fraction(rng.randint(1, 5), 3)])
        results = [a + b, a + rational, rational - a, a - b, a * b, a * rational,
                   rational * a, power(a, rng.randint(0, 3)),
                   substitute(a * b, {"k": rational})]
        if isinstance(a, ParamScalar):
            results += [a * (Fraction(1) / divisor), a * (Fraction(1) / -divisor)]
        elif a:
            results.append(power(a, rng.randint(-3, -1)))
        for c in results:
            values = c.terms.values() if isinstance(c, ParamScalar) else [c]
            assert all(type(v) in (int, Fraction) for v in values)


def _one_form(x) -> bool:
    """x is an int, a Fraction, or a ParamScalar that holds a parameter and
    stores nonzero ints and Fractions: never a float, never a constant
    ParamScalar."""
    if type(x) is ParamScalar:
        return any(x.terms) and all(type(c) in (int, Fraction) and c
                                    for c in x.terms.values())
    return type(x) in (int, Fraction)


def _coefficients(x):
    """Every scalar an element stores, through its Laurent components."""
    for value in x.terms.values():
        if isinstance(value, LinearCombination) and type(value) is not ParamScalar:
            yield from _coefficients(value)
        else:
            yield value


def test_every_scalar_has_one_form_random():
    rng = random.Random(2020)
    k = ParamScalar.var("k")
    V = ("y1", "y2")
    alg = fock_algebra(V)
    # derivation basis components, built from canonical terms (coefficients
    # 1/2, 1/3, 2/3 and integral ones)
    components = [component for n, N, d in ((2, 2, 2), (2, 3, 3), (3, 1, -1))
                  for field in derivations(build_model(n, N), d).basis
                  for component in field.values()]
    for _ in range(150):
        a, b = random_scalar(rng), random_scalar(rng)
        rational = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        divisor = Fraction(rng.choice((-3, -2, 1, 2, 5)), rng.randint(1, 3))
        scalars = [a + b, a - b, a * b, a - a, k - k + 1, a + rational - a, rational - a,
                   b - (a + b), power(a, rng.randint(0, 3)), power(rational or 2, -2),
                   substitute(a, {"k": rational}), substitute(a * b, {"k": rational, "c": k}),
                   substitute(a - k, {"k": k + rational})]
        if type(a) is ParamScalar:
            scalars += [a * (Fraction(1) / divisor), a * (Fraction(1) / rng.randint(1, 4)),
                        (a - b) * k]
        elif a:
            scalars.append(power(a, -rng.randint(1, 3)))
        for x in scalars:
            assert _one_form(x), x
        # the element constructors and their arithmetic store the same forms
        f = LaurentElement.monomial(V, (1, -1), a + k) + LaurentElement.monomial(V, (0, 2), b)
        g = LaurentElement.monomial(V, (1, 0), rational or 1) - LaurentElement.monomial(
            V, (1, -1), k)
        mono = LaurentElement.monomial(V, (rng.randint(-2, 2), 1), rational or -2)
        laurents = [f, g, f + g, f * g, f.derive(1), f.scale(divisor), mono ** -2,
                    LaurentElement.monomial(V, (0, 0), k) - LaurentElement.monomial(V, (0, 0), k - 1)]
        u = WeightOneElement.field("U1", V, 1, f) + WeightOneElement.form("U1", OneForm(V, {2: g}))
        v = WeightOneElement.field("U1", V, 2, g)
        omega = GluingForm({(1, 1): a + 1, (2, 1): b}) - GluingForm({(1, 1): k})
        elements = laurents + [u, v, u - v, vprod(u, 0, v), vprod(u, 1, v), transition(u, omega),
                               omega, omega.scale(divisor), extract(embed(u, alg), "U1")]
        x, y = alg.from_laurent(f), embed(v, alg)
        elements += [x, y, nproduct(x, -1, y), nproduct(y, 0, y), nproduct(x, -1, x) - x]
        elements += components
        for element in elements:
            for c in _coefficients(element):
                assert _one_form(c) and c, (element, c)


def test_ring_axioms_random():
    rng = random.Random(17)
    for _ in range(1000):
        a = random_scalar(rng)
        b = random_scalar(rng)
        c = random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        assert a * b == b * a


def test_solver_unique():
    k = ParamScalar.var("k")
    sol = solve_linear_system([k - 3], ["k"])
    assert sol.status == "unique"
    assert sol.assignment == {"k": 3}


def test_solver_inconsistent():
    k = ParamScalar.var("k")
    sol = solve_linear_system([k + 1, k - 1], ["k"])
    assert sol.status == "inconsistent"


def test_solver_underdetermined():
    sol = solve_linear_system([0], ["k"])
    assert sol.status == "underdetermined"


def test_solver_two_unknowns():
    k1 = ParamScalar.var("k1")
    k2 = ParamScalar.var("k2")
    sol = solve_linear_system([k1 + k2 - 3, k1 - k2 - 1], ["k1", "k2"])
    assert sol.status == "unique"
    assert sol.assignment == {"k1": 2, "k2": 1}


def test_solver_parametric_constants():
    # unknowns may be pinned to values involving leftover parameters
    k1 = ParamScalar.var("k1")
    k = ParamScalar.var("k")
    sol = solve_linear_system([k1 + k + 1], ["k1"])
    assert sol.status == "unique"
    assert sol.assignment == {"k1": -k - 1}
    eq = k1 + k + 1
    assert eq.substitute(sol.assignment) == 0


def test_solver_unique_assignment_satisfies():
    k = ParamScalar.var("k")
    eqs = [2 * k - 6, k - 3]
    sol = solve_linear_system(eqs, ["k"])
    assert sol.status == "unique"
    for eq in eqs:
        assert eq.substitute(sol.assignment) == 0


def test_solver_nonlinear_rejected():
    k = ParamScalar.var("k")
    with pytest.raises(NonlinearCondition):
        solve_linear_system([k * k - 1], ["k"])
    with pytest.raises(NonlinearCondition):
        solve_linear_system([k * ParamScalar.var("c") - 1], ["k", "c"])


def test_constant_value_refuses_a_parameter():
    assert constant_value(Fraction(3, 2)) == Fraction(3, 2)
    with pytest.raises(NonScalarDivisor) as info:
        constant_value(ParamScalar.var("k"))
    assert isinstance(info.value, VertexAlgError)


def test_subtraction_is_addition_of_the_negation():
    k, c = ParamScalar.var("k"), ParamScalar.var("c")
    for a, b in ((k + 1, c - k), (k, 3), (Fraction(1, 2) * k, Fraction(2, 3))):
        assert a - b == a + -b and b - a == -(a - b)
    # a foreign operand is still refused, not negated
    assert k.__sub__("x") is NotImplemented and k.__rsub__(k) is NotImplemented
    f = LaurentElement.coordinate(("y1", "y2"), 1)
    assert f.__sub__(k) is NotImplemented
    with pytest.raises(TypeError):
        k - "x"


def test_copies_keep_the_scalar():
    # the constructor may return a number, so a copy is rebuilt from the terms
    k = ParamScalar.var("k")
    for x in (k, k * k - Fraction(1, 2), 3 * k * ParamScalar.var("c")):
        assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x
        assert type(copy.deepcopy(x)) is ParamScalar


def test_package_divides_only_through_fraction():
    # a constant coefficient is a plain int, and int / int is a float: so the
    # left operand of every / in the package is a Fraction(...) call
    package = Path(vertexalg.__file__).parent
    divisions = 0
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                left = node.left
                assert (isinstance(left, ast.Call) and isinstance(left.func, ast.Name)
                        and left.func.id == "Fraction"), (path.name, node.lineno)
                divisions += 1
    assert divisions
