"""Curvature-tagged trigonometric functions and the gamma profiles.

The tagged functions unify the circular and hyperbolic families under one
curvature parameter kappa:

    S_k(x) = sin(sqrt(k) x)/sqrt(k)   [k>0],  x  [k=0],  sinh(sqrt(-k) x)/sqrt(-k)  [k<0]
    C_k(x) = cos(sqrt(k) x)           [k>0],  1  [k=0],  cosh(sqrt(-k) x)           [k<0]
    T_k    = S_k / C_k

A :class:`GammaProfile` fixes one solution gamma(u) of

    gamma' + c gamma^2 + C = 0,       kappa = C/c  (when c != 0)

namely gamma = -C (u+shift) for c = 0 and gamma = C_k(c w)/S_k(c w) with
w = u+shift otherwise. The ``translated`` flag selects the half-period
translation of w (imaginary for kappa<0), which stays real and swaps the
sin^2/cos^2 and sinh^2/cosh^2 end forms while solving the same ODE with
the opposite-sign effective gamma'. One function, gamma_and_prime, holds the
branch table; gamma and gamma_prime are its two values.
"""

from dataclasses import dataclass

import numpy as np

from . import duals as dm
from .duals import any_true, primal

# sqrt of the smallest normal float 2**-1022, about 1.49e-154: below it d*d is
# subnormal or zero, and a/(d*d) is inf or raises ZeroDivisionError
_POLE_GUARD = 2.0**-511


class GammaPoleError(ZeroDivisionError):
    """gamma(u) evaluated at (or indistinguishably close to) a pole.

    For a batch of points, u is the first entry where the mask at is true.
    """

    def __init__(self, u, at=True):
        u = primal(u)
        if isinstance(u, np.ndarray):
            u = float(u[at][0])
        super().__init__(f"gamma profile singular at u={u!r}")
        self.u = u


def tagged_S(kappa, x):
    if kappa > 0:
        rk = dm.sqrt(kappa)
        return dm.sin(rk * x) / rk
    if kappa < 0:
        rk = dm.sqrt(-kappa)
        return dm.sinh(rk * x) / rk
    return x


def tagged_C(kappa, x):
    if kappa > 0:
        return dm.cos(dm.sqrt(kappa) * x)
    if kappa < 0:
        return dm.cosh(dm.sqrt(-kappa) * x)
    return 1.0


@dataclass(frozen=True)
class GammaProfile:
    """Parameters of one gamma(u) solution branch.

    kappa is stored explicitly (it equals C/c when c != 0 and is unused when
    c = 0, which keeps the c = 0 limit uniform). ``translated`` realizes the
    half-period translation of u as a real branch flag instead of complex
    arithmetic; it requires c != 0 and kappa != 0.
    """

    c: float
    C: float
    kappa: float
    shift: float = 0.0
    translated: bool = False

    def __post_init__(self):
        if self.translated and (self.c == 0.0 or self.kappa == 0.0):
            raise ValueError("translated branch requires c != 0 and kappa != 0")
        if self.c != 0.0:
            err = abs(self.kappa * self.c - self.C)
            if err > 1e-12 * (1.0 + abs(self.C)):
                raise ValueError("kappa must equal C/c when c != 0")

    @staticmethod
    def from_c_C(c, C):
        """The principal branch, unshifted; from_c_kappa reaches the others."""
        return GammaProfile(c, C, C / c if c != 0.0 else 0.0)

    @staticmethod
    def from_c_kappa(c, kappa, shift=0.0, translated=False):
        return GammaProfile(c, kappa * c, kappa, shift, translated)


def _pole_guard(den, u):
    """Raise GammaPoleError where den*den falls below the smallest normal float."""
    near = abs(primal(den)) < _POLE_GUARD
    if any_true(near):
        raise GammaPoleError(u, near)


def gamma(profile, u):
    """gamma(u); raises GammaPoleError where S_k (or the translated denominator) vanishes."""
    return gamma_and_prime(profile, u)[0]


def gamma_prime(profile, u):
    """gamma'(u), satisfying gamma' = -c gamma^2 - C identically on the branch."""
    return gamma_and_prime(profile, u)[1]


def gamma_and_prime(profile, u):
    """(gamma(u), gamma'(u)) with gamma' = a/(d*d): d is 1 for c = 0 and else, for x =
    c (u+shift), S_k(x), or C_k(x) when translated, behind the pole guard."""
    c, k = profile.c, profile.kappa
    if c == 0.0:
        return -profile.C * (u + profile.shift), -profile.C
    x = c * (u + profile.shift)
    if profile.translated:
        # translated S_k^2 = C_k^2(x)/k, so gamma' = -c k / C_k^2(x) for either sign of kappa
        d, a = tagged_C(k, x), -c * k
    else:
        d, a = tagged_S(k, x), -c
    _pole_guard(d, u)
    if not profile.translated:
        g = tagged_C(k, x) / d
    elif k > 0:
        # C_k(x + pi/(2 sqrt(k))) / S_k(same) = -sqrt(k) tan(sqrt(k) x)
        g = -dm.sqrt(k) * (dm.sin(dm.sqrt(k) * x) / d)
    else:
        g = dm.sqrt(-k) * dm.tanh(dm.sqrt(-k) * x)
    return g, a / (d * d)
