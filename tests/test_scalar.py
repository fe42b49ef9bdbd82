import random
from fractions import Fraction

import pytest

from vertexalg.errors import InvalidInput, NonlinearCondition, NonScalarDivisor
from vertexalg.laurent import LaurentElement
from vertexalg.scalar import ONE, ZERO, ParamScalar, solve_linear_system


def random_scalar(rng, names=("k", "c")):
    out = ParamScalar.zero()
    for _ in range(rng.randint(1, 4)):
        mono = ParamScalar.of(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for _ in range(rng.randint(0, 2)):
            mono = mono * ParamScalar.var(rng.choice(names))
        out = out + mono
    return out


def test_rational_arithmetic():
    assert ParamScalar.of(Fraction(1, 2)) + ParamScalar.of(Fraction(1, 3)) == ParamScalar.of(Fraction(5, 6))


def test_parameter_cancellation():
    k = ParamScalar.var("k")
    assert k * k - k * k == ZERO
    assert (k + 1) * (k - 1) - (k * k - 1) == ZERO


def test_affine_specialization():
    # N - 1 - 2r - k at N=2, r=0 reads 1 - k
    k = ParamScalar.var("k")
    expr = ParamScalar.of(2) - 1 - 0 - k
    assert expr == ParamScalar.of(1) - k


def test_substitute():
    k = ParamScalar.var("k")
    expr = k * k - ParamScalar.of(2) * k
    assert expr.substitute({"k": 3}) == ParamScalar.of(3)
    partial = (k * ParamScalar.var("c")).substitute({"c": 2})
    assert partial == ParamScalar.of(2) * k


def test_division():
    k = ParamScalar.var("k")
    assert (k * 6) / 3 == k * 2
    with pytest.raises(NonScalarDivisor):
        _ = ONE / ZERO
    with pytest.raises(NonScalarDivisor):
        _ = ONE / k


def test_negative_powers():
    assert ParamScalar.of(2) ** -1 == ParamScalar.of(Fraction(1, 2))
    assert ParamScalar.of(Fraction(-2, 3)) ** -2 == ParamScalar.of(Fraction(9, 4))
    assert ParamScalar.of(5) ** 0 == ONE
    k = ParamScalar.var("k")
    for base in (ZERO, k, k + 1):
        with pytest.raises(InvalidInput):
            _ = base ** -1


def test_monomial_powers_take_one_step():
    rng = random.Random(1304)
    k, c = ParamScalar.var("k"), ParamScalar.var("c")
    bases = [ZERO, ONE, ParamScalar.of(Fraction(-2, 3)), k, k * k * c * Fraction(3, 2),
             k + 1] + [random_scalar(rng) for _ in range(10)]
    for base in bases:
        out = ONE
        for n in range(6):
            assert base ** n == out, (base, n)
            out = out * base
    # c*k^a to a huge n is c^n * k^(a*n), at once
    huge = 10 ** 20
    assert (-k * k * c) ** huge == ParamScalar({(("c", huge), ("k", 2 * huge)): 1})
    assert ZERO ** huge == ZERO and ZERO ** 0 == ONE


def test_division_and_negative_powers_stay_exact():
    # on ints, 2 / 3 and 2 ** -1 would be floats
    assert ParamScalar.of(2) / 3 == Fraction(2, 3)
    assert ParamScalar.of(2) ** -1 == Fraction(1, 2)
    for value in (ParamScalar.of(2) / 3, ParamScalar.of(2) ** -1):
        assert type(value.terms[()]) is Fraction
    f = LaurentElement.monomial(("y1", "y2"), (1, 0), 2) ** -1
    assert f.terms == {(-1, 0): ParamScalar.of(Fraction(1, 2))}
    assert type(f.terms[(-1, 0)].terms[()]) is Fraction


def test_no_float_is_ever_stored_random():
    rng = random.Random(23)

    def operand():
        if rng.random() < 0.5:
            return ParamScalar.of(rng.randint(-4, 4))
        return random_scalar(rng)

    for _ in range(500):
        a, b = operand(), operand()
        rational = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)])
        divisor = rng.choice([rng.randint(1, 5), Fraction(rng.randint(1, 5), 3)])
        results = [a + b, a + rational, rational - a, a - b, a * b, a * rational,
                   rational * a, a / divisor, a / -divisor, a / ParamScalar.of(divisor),
                   a ** rng.randint(0, 3), (a * b).substitute({"k": rational})]
        if a.is_constant() and a:
            results.append(a ** rng.randint(-3, -1))
        for c in results:
            assert all(type(v) in (int, Fraction) for v in c.terms.values())


def test_ring_axioms_random():
    rng = random.Random(17)
    for _ in range(1000):
        a = random_scalar(rng)
        b = random_scalar(rng)
        c = random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ZERO
        assert a * b == b * a


def test_solver_unique():
    k = ParamScalar.var("k")
    sol = solve_linear_system([k - 3], ["k"])
    assert sol.status == "unique"
    assert sol.assignment == {"k": ParamScalar.of(3)}


def test_solver_inconsistent():
    k = ParamScalar.var("k")
    sol = solve_linear_system([k + 1, k - 1], ["k"])
    assert sol.status == "inconsistent"


def test_solver_underdetermined():
    sol = solve_linear_system([ZERO], ["k"])
    assert sol.status == "underdetermined"


def test_solver_two_unknowns():
    k1 = ParamScalar.var("k1")
    k2 = ParamScalar.var("k2")
    sol = solve_linear_system([k1 + k2 - 3, k1 - k2 - 1], ["k1", "k2"])
    assert sol.status == "unique"
    assert sol.assignment == {"k1": ParamScalar.of(2), "k2": ParamScalar.of(1)}


def test_solver_parametric_constants():
    # unknowns may be pinned to values involving leftover parameters
    k1 = ParamScalar.var("k1")
    k = ParamScalar.var("k")
    sol = solve_linear_system([k1 + k + 1], ["k1"])
    assert sol.status == "unique"
    assert sol.assignment == {"k1": -k - 1}
    eq = k1 + k + 1
    assert eq.substitute(sol.assignment) == ZERO


def test_solver_unique_assignment_satisfies():
    k = ParamScalar.var("k")
    eqs = [2 * k - 6, k - 3]
    sol = solve_linear_system(eqs, ["k"])
    assert sol.status == "unique"
    for eq in eqs:
        assert eq.substitute(sol.assignment) == ZERO


def test_solver_nonlinear_rejected():
    k = ParamScalar.var("k")
    with pytest.raises(NonlinearCondition):
        solve_linear_system([k * k - 1], ["k"])
    with pytest.raises(NonlinearCondition):
        solve_linear_system([k * ParamScalar.var("c") - 1], ["k", "c"])
