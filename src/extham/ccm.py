"""Coupling-constant metamorphosis: trade a coupling constant for the energy.

Given H = Hhat - Etilde U with a position-only coupling function U, a new
energy E and an integral K depending on the parameter Etilde,
``ccm_transform(Hhat, K_builder, U, E)`` gives the transformed pair

    H' = (Hhat - E)/U,        K' = K with Etilde replaced by H'(x).

K is supplied as a builder mapping the real parameter Etilde to a phase
function; the builder must be generic in its argument (no float casts), so
that when the evaluation point carries derivative slots the substitution
Etilde = H'(x) chain-rules through both the parameter and the point. A
frozen-parameter substitution is *not* an integral of H'; the bracket test
distinguishes the two.
"""

from . import duals as dm
from .phase import PhaseFunction


def ccm_transform(Hhat, K_builder, U, E):
    """(H', K') from Hhat, the Etilde-parametric integral builder, U and E."""
    if U.dof != Hhat.dof:
        raise ValueError("coupling function and Hamiltonian must share a phase space")

    h_rule = Hhat.rule
    u_rule = U.rule

    def hprime_rule(q, p):
        return (h_rule(q, p) - E) / u_rule(q, p)

    Hprime = PhaseFunction(hprime_rule, Hhat.dof)

    def kprime_rule(q, p):
        etilde = hprime_rule(q, p)
        return K_builder(etilde).rule(q, p)

    return Hprime, PhaseFunction(kprime_rule, Hhat.dof)


def rescale_radial(f):
    """Canonical substitution u = sqrt(2v), p_u = u p_v applied to f(u, ..., p_u, ...).

    The radial slot is the leading one; remaining slots pass through. Fails
    on v <= 0.
    """

    rule = f.rule

    def new_rule(q, p):
        v = q[0]
        if dm.any_true(dm.primal(v) <= 0.0):
            raise ValueError("radial rescale requires v > 0")
        u = dm.sqrt(2.0 * v)
        return rule((u,) + q[1:], (u * p[0],) + p[1:])

    return PhaseFunction(new_rule, f.dof)
