"""Classical ladder-function conditions for the catalog base systems.

With eta^2 = -c (so the trig branch is the analytic continuation of the
hyperbolic one), a ladder pair for L = p^2/2 + V is a function F(psi) and a
constant c1 satisfying

    r1 = F'' - eta^2 F            = F'' + c F      = 0
    r2 = V' F' + 2 eta^2 V F + c1 = V'F' - 2cVF + c1 = 0.

For the V-family bases the solution is F = g' with c1 = -c^2 C4 / eta_hat
(the hyperbolic form of which is -C4 eta^3). The first-order combinations

    F_pm = +-F' p_psi + F f + c1/f,      f = sqrt(2 (eta^2 L + c0))

are evaluated here only as diagnostics; see ladder_eigen_pattern.
"""

from dataclasses import dataclass

from . import duals as dm
from .duals import any_true, derivative, primal, taylor
from .phase import PhaseFunction, hamiltonian_vector_field


@dataclass
class LadderData:
    """A candidate ladder function F with its constant c1, tied to a base system."""

    F: object
    c1: float
    base: object


def ladder_from_base(base):
    """The base family's own ladder pair: F = g', c1 = -c^2 C4 / eta_hat."""
    if base.g_scalar is None:
        raise ValueError("base system has no gauge function g to differentiate")
    C4 = base.params.get("C4", 0.0)
    g = base.g_scalar
    F = lambda psi: derivative(g, psi)
    c1 = -(base.c**2) * C4 / base.eta_hat
    return LadderData(F=F, c1=c1, base=base)


def ladder_residuals(data, psi):
    """(r1, r2) at psi (a float or a Batch); both vanish iff (F, c1) is a valid ladder pair.

    F, F', F'' and V, V' come from one jet evaluation each.
    """
    base = data.base
    Fv, Fp, Fpp = taylor(data.F, psi, 2)
    Vv, Vp = taylor(lambda t: base.V.rule((t,), (0.0,)), psi, 1)
    c = base.c
    r1 = Fpp + c * Fv
    r2 = Vp * Fp - 2.0 * c * Vv * Fv + data.c1
    return r1, r2


def ladder_scale(data, psi):
    """1 + |V(psi)|, the residual tolerance scale."""
    return 1.0 + abs(data.base.V.rule((psi,), (0.0,)))


def ladder_function(data, sign):
    """F_pm = sign F' p + F f + c1/f as a phase function on the base space."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    base = data.base
    F = data.F
    c1 = data.c1
    c, c0 = base.c, base.c0
    L_rule = base.L.rule

    def rule(q, p):
        arg = 2.0 * (-c * L_rule(q, p) + c0)
        if any_true(primal(arg) <= 0.0):
            raise ValueError("ladder function needs eta^2 L + c0 > 0 at the point")
        f = dm.sqrt(arg)
        Fv, Fp = taylor(F, q[0], 1)
        return sign * Fp * p[0] + Fv * f + c1 / f

    return PhaseFunction(rule, 1)


def ladder_eigen_pattern(data, x, sign=1):
    """Residuals of the printed relation X_L^2(F_pm) = f F_pm and of the two empirical
    ones, X_L(F_pm) = (+-) f F_pm and X_L^2(F_pm) = f^2 F_pm; reported, never gated.

    All three are recorded, so the observed structure is documented without
    choosing a corrected equation.
    """
    base = data.base
    Fpm = ladder_function(data, sign)
    x1 = hamiltonian_vector_field(base.L, Fpm)
    x2 = hamiltonian_vector_field(base.L, x1)
    f = dm.sqrt(2.0 * (-base.c * base.L(x) + base.c0))
    val, x2x = Fpm(x), x2(x)
    return {
        "second_order_vs_f": x2x - f * val,
        "second_order_vs_f_squared": x2x - f * f * val,
        "first_order_vs_sign_f": x1(x) - sign * f * val,
    }
