"""References that the package itself no longer uses.

Nested-dual derivatives, central-difference gradients and brackets, the
seed-equation terms and residual, the V10 base with its position-only seed,
the rows of a draw as PhasePoints, a leaf-by-leaf view of values, the
closed-form X_L(G_n) and the gamma ODE residual, and the earlier bodies of
partials_at on every leaf, gamma, gamma_prime, the recursive K and Kbar rules
and the closed-form sums with their magnitude mode: one partials rule, one
branch table, one recursive evaluator and one closed-form evaluator must
reproduce them bit for bit.
"""

import math

import numpy as np

from extham import duals as dm
from extham import tagged_trig
from extham.catalog import PSI_WINDOW
from extham.extension import BaseSystem
from extham.phase import PhaseFunction, PhasePoint, bracket_of_gradients, hamiltonian_vector_field
from extham.tagged_trig import GammaPoleError, gamma_and_prime, tagged_C, tagged_S


def nth_derivative(f, x, order):
    """Iterated exact derivative by nested duals; nesting depth equals order."""
    if order == 0:
        return f(x)
    return dm.derivative(lambda t: nth_derivative(f, t, order - 1), x)


def seeded_partials(f, q, p):
    """(f, [df/dq_i], [df/dp_i]) by one seeded evaluation per direction, on any leaves;
    the value is the primal of the first."""
    dq = []
    dp = []
    for i in range(len(q)):
        tag = dm.new_tag()
        y = f.rule(q[:i] + (dm.Dual(q[i], 1.0, tag),) + q[i + 1 :], p)
        if not i:
            value = y.val if isinstance(y, dm.Dual) and y.tag == tag else y
        dq.append(dm.tangent_part(y, tag))
        tag = dm.new_tag()
        y = f.rule(q, p[:i] + (dm.Dual(p[i], 1.0, tag),) + p[i + 1 :])
        dp.append(dm.tangent_part(y, tag))
    return value, dq, dp


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient; the independent cross-check oracle."""
    z = np.array(x.q + x.p)
    out = np.empty_like(z)
    for i in range(len(z)):
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        out[i] = (f(PhasePoint.from_array(zp)) - f(PhasePoint.from_array(zm))) / (2 * h)
    return out


def fd_poisson_bracket(f, g, x, h=1e-5):
    """Brute-force bracket from central differences only."""
    return float(bracket_of_gradients(fd_gradient(f, x, h), fd_gradient(g, x, h)))


def seed_equation_terms(base, c, c0, x):
    """(X_L^2 G, 2(cL+c0)G) at x; their sum is the seed-equation residual."""
    xg = hamiltonian_vector_field(base.L, base.G)
    x2g = hamiltonian_vector_field(base.L, xg)
    return x2g(x), 2.0 * (c * base.L(x) + c0) * base.G(x)


def seed_equation_residual(base, c, c0, x):
    """X_L^2(G)(x) + 2(cL(x)+c0)G(x); zero certifies the extension seed."""
    a, b = seed_equation_terms(base, c, c0, x)
    return a + b


def v10_base(C1, C2, C3, eta=2.0):
    """The paper's V10 base: V = C3/g^2 with g = C1 e^(eta psi) + C2 e^(-eta psi), and the
    position-only seed G = C1 e^(eta psi) - C2 e^(-eta psi), which solves the seed
    equation at c = -eta^2, c0 = 0; no command builds it. Take a g free of zeros on
    PSI_WINDOW."""
    def g(psi):
        return C1 * dm.exp(eta * psi) + C2 * dm.exp(-eta * psi)

    def V(q, p):
        return C3 / dm.pow_(g(q[0]), 2)

    return BaseSystem(
        family="V10", params={"C1": C1, "C2": C2, "C3": C3, "eta": eta}, c=-(eta**2),
        V=PhaseFunction(V, 1), L=PhaseFunction(lambda q, p: 0.5 * p[0] * p[0] + V(q, p), 1),
        G=PhaseFunction(lambda q, p: C1 * dm.exp(eta * q[0]) - C2 * dm.exp(-eta * q[0]), 1),
        g_scalar=g, eta_hat=eta, psi_window=PSI_WINDOW,
    )


def phase_points(z):
    """The rows of a sampler's (num, 2*dof) draw as PhasePoints."""
    return [PhasePoint.from_array(row) for row in z]


def leaf_values(x):
    """x with every Dual, Jet and array layer spelled out, tags left aside."""
    if isinstance(x, dm.Dual):
        return ("dual", leaf_values(x.val), leaf_values(x.dot))
    if isinstance(x, dm.Jet):
        return ("jet", [leaf_values(c) for c in x.c])
    if isinstance(x, np.ndarray):
        return ("array", x.tolist())
    if isinstance(x, (tuple, list)):
        return [leaf_values(v) for v in x]
    return x


def columns(z):
    """(q, p) blocks of float64 array leaves for the points that are the rows of z."""
    cols = tuple(np.asarray(z, dtype=float).T)
    d = len(cols) // 2
    return cols[:d], cols[d:]


def leaf_bits(x):
    """leaf_values(x) with each float as its hex string, so a signed zero is told apart."""
    x = leaf_values(x)
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return [leaf_bits(v) for v in x]
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
    if c == 0.0:
        return -profile.C * u
    x = c * u
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
    x = c * u
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
    om = 2.0 * spec.Omega / dm.pow_(gam, 2)
    for _ in range(s):
        u2 = ext._u_step(ext._u_step(d, p[0], gam), p[0], gam)
        d = [a + om * b for a, b in zip(u2, d)]
    return d[0]


def xl_gn_closed(ext, n):
    """X_L(G_n) in closed form (derivation applied to the expansion)."""

    def rule(q, p):
        G, XG, L = ext._seed_triple(q, p)
        return ext._gn_xgn_values(G, XG, ext.spec.c * L + ext.spec.c0, n)[1]

    return PhaseFunction(rule, 1)


def ttw_hamiltonian(a, b, kappa, psi0, w, r, theta, p_r, p_theta):
    """The TTW Hamiltonian (Tremblay, Turbiner & Winternitz 2009) in plane polar coordinates:
    p_r^2/2 + (p_theta^2 + a/sin^2(kappa theta + psi0/2) + b/cos^2(kappa theta + psi0/2))/(2 r^2) + w r^2."""
    phi = kappa * theta + 0.5 * psi0
    angular = p_theta**2 + a / math.sin(phi) ** 2 + b / math.cos(phi) ** 2
    return 0.5 * p_r**2 + angular / (2.0 * r**2) + w * r**2


def ode_residual(profile, u):
    """gamma' + c gamma^2 + C; zero to rounding on every branch."""
    g, gp = gamma_and_prime(profile, u)
    return gp + profile.c * g * g + profile.C


def gn_xgn_values(ext, q1, p1, n, magnitudes=False):
    """(G_n, X_L G_n, L), or their absolute summands, with the magnitude switch inside."""
    G, XG, L = ext._seed_triple(q1, p1)
    w = ext.spec.c * L + ext.spec.c0
    if magnitudes:
        G, XG, w = abs(G), abs(XG), abs(w)
        sign = 2
    else:
        sign = -2
    gn = 0.0
    xgn = 0.0
    for j in range((n - 1) // 2 + 1):
        coef = math.comb(n, 2 * j + 1) * sign**j
        t = coef * dm.pow_(w, j)
        gn = gn + t * dm.pow_(G, 2 * j + 1) * dm.pow_(XG, n - 2 * j - 1)
        xgn = xgn + t * (2 * j + 1) * dm.pow_(G, 2 * j) * dm.pow_(XG, n - 2 * j)
        if n - 2 * j - 1 > 0:
            term = (t * 2 * (n - 2 * j - 1) * w * dm.pow_(G, 2 * j + 2)
                    * dm.pow_(XG, n - 2 * j - 2))
            xgn = (xgn + term) if magnitudes else (xgn - term)
    return gn, xgn, L


def pd_values(ext, r, gam, pu, w, magnitudes=False):
    """(P_{m,n,r}, D_{m,n,r}), or their absolute summands, with the magnitude switch inside."""
    mg = (ext.spec.m / ext.spec.n) * gam
    if magnitudes:
        mg, pu, w = abs(mg), abs(pu), abs(w)
        sign = 2
    else:
        sign = -2
    P = 0.0
    for j in range(r // 2 + 1):
        P = P + (math.comb(r, 2 * j) * sign**j * dm.pow_(mg, 2 * j) * dm.pow_(pu, r - 2 * j)
                 * dm.pow_(w, j))
    D = 0.0
    for j in range((r - 1) // 2 + 1):
        D = D + (math.comb(r, 2 * j + 1) * sign**j * dm.pow_(mg, 2 * j + 1)
                 * dm.pow_(pu, r - 2 * j - 1) * dm.pow_(w, j))
    return P, (1.0 / ext.spec.n) * D


def closed_form(ext, q, p, s, magnitudes=False):
    """K_{m,n} (s = 0) or Kbar_{m,n} (s = m/2) at (q, p), or the sum of its absolute summands."""
    spec = ext.spec
    gn, xgn, L = gn_xgn_values(ext, q[1:], p[1:], spec.n, magnitudes)
    w = spec.c * L + spec.c0
    gam = tagged_trig.gamma(spec.gamma, q[0])

    def term(r):
        P, D = pd_values(ext, r, gam, p[0], w, magnitudes)
        return P * gn + D * xgn

    if s == 0:
        return term(spec.m)
    om_term = 2.0 * spec.Omega / (gam * gam)
    om_term = abs(om_term) if magnitudes else om_term
    total = 0.0
    for j in range(s + 1):
        total = total + math.comb(s, j) * dm.pow_(om_term, j) * term(spec.m - 2 * j)
    return total
