"""Reference formulas of the classical Courant calculus, for tests to compare
the shipped quantum products against (their quasiclassical limit).

A vector field sum_i f_i d/dy_i is a plain dict {i: f_i} of LaurentElements,
the type of `WeightOneElement.field_part`.
"""

from vertexalg.laurent import LaurentElement, OneForm, de_rham
from vertexalg.scalar import accumulate


def apply_field(tau: dict, f: LaurentElement) -> LaurentElement:
    """The derivative of f along tau: sum_i tau_i d_i f."""
    out = LaurentElement(f.variables)
    for i, comp in tau.items():
        out = out + comp * f.derive(i)
    return out


def bracket(tau: dict, xi: dict) -> dict:
    """Lie bracket of vector fields: [tau, xi]_j = tau(xi_j) - xi(tau_j)."""
    comps = {}
    for j, g in xi.items():
        accumulate(comps, j, apply_field(tau, g))
    for j, f in tau.items():
        accumulate(comps, j, -apply_field(xi, f))
    return comps


def lie_derivative(tau: dict, omega: OneForm) -> OneForm:
    """Lie derivative of a one-form: (L_tau w)_j = sum_i tau_i d_i w_j + w_i d_j tau_i."""
    comps = {}
    for j, g in omega.terms.items():
        accumulate(comps, j, apply_field(tau, g))
    for i, f in tau.items():
        g = omega.terms.get(i)
        if g is not None:
            for j, df in de_rham(f).terms.items():
                accumulate(comps, j, g * df)
    return OneForm(omega.variables, comps)
