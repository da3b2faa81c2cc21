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
the opposite-sign effective gamma'.
"""

from dataclasses import dataclass

import numpy as np

from . import duals as dm
from .duals import any_true, primal

_POLE_GUARD = 1e-300


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


def tagged_T(kappa, x):
    return tagged_S(kappa, x) / tagged_C(kappa, x)


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
    def from_c_C(c, C, shift=0.0, translated=False):
        kappa = C / c if c != 0.0 else 0.0
        return GammaProfile(c, C, kappa, shift, translated)

    @staticmethod
    def from_c_kappa(c, kappa, shift=0.0, translated=False):
        return GammaProfile(c, kappa * c, kappa, shift, translated)


def _pole_guard(den, u):
    """Raise GammaPoleError where den is indistinguishable from zero."""
    near = abs(primal(den)) < _POLE_GUARD
    if any_true(near):
        raise GammaPoleError(u, near)


def _checked_div(num, den, u):
    _pole_guard(den, u)
    return num / den


def gamma(profile, u):
    """gamma(u); raises GammaPoleError where S_k (or the translated denominator) vanishes."""
    c = profile.c
    w = u + profile.shift
    if c == 0.0:
        return -profile.C * w
    x = c * w
    k = profile.kappa
    if not profile.translated:
        return _checked_div(tagged_C(k, x), tagged_S(k, x), u)
    if k > 0:
        # C_k(x + pi/(2 sqrt(k))) / S_k(same) = -sqrt(k) tan(sqrt(k) x)
        rk = dm.sqrt(k)
        return -rk * _checked_div(dm.sin(rk * x), dm.cos(rk * x), u)
    rk = dm.sqrt(-k)
    return rk * dm.tanh(rk * x)


def gamma_prime(profile, u):
    """gamma'(u), satisfying gamma' = -c gamma^2 - C identically on the branch."""
    c = profile.c
    if c == 0.0:
        return -profile.C
    x = c * (u + profile.shift)
    k = profile.kappa
    if not profile.translated:
        s = tagged_S(k, x)
        _pole_guard(s, u)
        return -c / (s * s)
    if k > 0:
        # translated S^2 = cos^2(sqrt(k) x)/k
        cc = dm.cos(dm.sqrt(k) * x)
        _pole_guard(cc, u)
        return -c * k / (cc * cc)
    # translated (kappa<0): S^2 picks up a sign, so gamma' = +c|kappa| sech^2
    ch = dm.cosh(dm.sqrt(-k) * x)
    return c * (-k) / (ch * ch)


def gamma_and_prime(profile, u):
    """(gamma(u), gamma'(u)) from one S_k/C_k pair behind one pole guard.

    Each value equals gamma and gamma_prime bit for bit: the same operations
    on the same operands, with S_k (or the translated denominator) computed
    once.
    """
    c = profile.c
    w = u + profile.shift
    if c == 0.0:
        return -profile.C * w, -profile.C
    x = c * w
    k = profile.kappa
    if not profile.translated:
        s = tagged_S(k, x)
        _pole_guard(s, u)
        return tagged_C(k, x) / s, -c / (s * s)
    if k > 0:
        rk = dm.sqrt(k)
        cc = dm.cos(rk * x)
        _pole_guard(cc, u)
        return -rk * (dm.sin(rk * x) / cc), -c * k / (cc * cc)
    rk = dm.sqrt(-k)
    ch = dm.cosh(rk * x)
    return rk * dm.tanh(rk * x), c * (-k) / (ch * ch)


def ode_residual(profile, u):
    """gamma' + c gamma^2 + C; zero to rounding on every branch."""
    g, gp = gamma_and_prime(profile, u)
    return gp + profile.c * g * g + profile.C
