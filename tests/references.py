"""References that the package itself no longer uses.

Nested-dual derivatives, a leaf-by-leaf view of values, and the earlier
bodies of gamma, gamma_prime and the recursive K and Kbar rules: one
branch table and one recursive evaluator must reproduce them bit for bit.
"""

import numpy as np

from extham import duals as dm
from extham.tagged_trig import GammaPoleError, tagged_C, tagged_S


def nth_derivative(f, x, order):
    """Iterated exact derivative by nested duals; nesting depth equals order."""
    if order == 0:
        return f(x)
    return dm.derivative(lambda t: nth_derivative(f, t, order - 1), x)


def leaf_values(x):
    """x with every Dual, Jet and Batch layer spelled out, tags left aside."""
    if isinstance(x, dm.Dual):
        return ("dual", leaf_values(x.val), leaf_values(x.dot))
    if isinstance(x, dm.Jet):
        return ("jet", [leaf_values(c) for c in x.c])
    if isinstance(x, np.ndarray):
        return ("batch", x.tolist())
    if isinstance(x, (tuple, list)):
        return [leaf_values(v) for v in x]
    return x


def _pole_guard(den, u):
    near = abs(dm.primal(den)) < 1e-300
    if dm.any_true(near):
        raise GammaPoleError(u, near)


def _checked_div(num, den, u):
    _pole_guard(den, u)
    return num / den


def gamma(profile, u):
    """gamma(u), one branch at a time."""
    c = profile.c
    w = u + profile.shift
    if c == 0.0:
        return -profile.C * w
    x = c * w
    k = profile.kappa
    if not profile.translated:
        return _checked_div(tagged_C(k, x), tagged_S(k, x), u)
    if k > 0:
        rk = dm.sqrt(k)
        return -rk * _checked_div(dm.sin(rk * x), dm.cos(rk * x), u)
    rk = dm.sqrt(-k)
    return rk * dm.tanh(rk * x)


def gamma_prime(profile, u):
    """gamma'(u), one branch at a time."""
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
        cc = dm.cos(dm.sqrt(k) * x)
        _pole_guard(cc, u)
        return -c * k / (cc * cc)
    ch = dm.cosh(dm.sqrt(-k) * x)
    return c * (-k) / (ch * ch)


def k_recursive_value(ext, q, p):
    """K_{m,n} = U^m(G_n) at (q, p), applying U m times."""
    m, n = ext.spec.m, ext.spec.n
    d = ext._xl_powers(q[1:], p[1:], n, m + 1)
    gam = gamma(ext.spec.gamma, q[0])
    for _ in range(m):
        d = ext._u_step(d, p[0], gam)
    return d[0]


def kbar_recursive_value(ext, s, r, q, p):
    """Kbar_{2s,r} = (U^2 + 2 Omega gamma^-2)^s (G_r) at (q, p)."""
    spec = ext.spec
    d = ext._xl_powers(q[1:], p[1:], r, 2 * s + 1)
    gam = gamma(spec.gamma, q[0])
    om = 2.0 * spec.Omega / gam**2
    for _ in range(s):
        u2 = ext._u_step(ext._u_step(d, p[0], gam), p[0], gam)
        d = [a + om * b for a, b in zip(u2, d)]
    return d[0]
