"""Extension engine: seed equation, G_n chain, U operator, extended H, K and Kbar.

Everything here evaluates pointwise through the exact differentiation scheme.
Two independent routes exist for each construction: the literal operator
recursion (U applied repeatedly, G_n built by its recursion) and the closed
binomial expansions; tests pin their pointwise equality.

The closed forms need G, X_L G and L at a base point, from the partials of G
and L (BaseSystem.partials). The recursion runs on truncated Taylor series
along the L-flow: at a base point, X_L^j f = j! [f(z(t))]_j for the flow
z(t) of L, so the G_n recursion becomes jet products with X_L a coefficient
shift, and U acts on the vector of X_L-derivatives. It never uses the seed
equation or the closed forms, and its cost is polynomial in (m, n). The
flow's coefficients through t^order come from BaseSystem.flow_jets, which
equals flow_jets_by_evaluation: L's partials evaluated on jets, order after
order.

A base system compiles both evaluations once (compile_partials,
compile_flow_series), under one contract: a program answers as the
evaluation it compiles, bit for bit, and where the trace fails or has no
compiled form the callable returned is that evaluation itself. The partials
program calls it where a guard flips; the series program has no guards, as
a tape that compares has no series form.

The base Hamiltonian L acts on the trailing (psi, p_psi) block of the
extended phase space (u, psi, p_u, p_psi); functions of the base block are
silently lifted. X_L never touches (u, p_u), so multiplication by any
function of u commutes with the U operator.
"""

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .duals import Jet, Tape, Trace, coefficient, define, pow_, primal
from .phase import PhaseFunction, compile_partials, gradient, partials_at
from .tagged_trig import GammaProfile, gamma, gamma_and_prime


@dataclass(frozen=True)
class ExtensionSpec:
    """Indices and constants (m, n, c, c0, Omega) plus the gamma branch of one extension:
    c != 0, and c0 = 0 as in every base (BaseSystem), so no evaluation reads c0."""

    m: int
    n: int
    c: float
    c0: float
    Omega: float
    gamma: GammaProfile

    def __post_init__(self):
        if not (isinstance(self.m, int) and isinstance(self.n, int)):
            raise TypeError("m and n must be integers")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if self.c == 0.0 or self.c0 != 0.0:
            raise ValueError(f"an extension needs c != 0 and c0 = 0; it has (c, c0) = ({self.c}, {self.c0})")
        if abs(self.gamma.c - self.c) > 1e-12 * (1.0 + abs(self.c)):
            raise ValueError("gamma profile must solve the ODE with the same c")


@dataclass
class BaseSystem:
    """One-dimensional natural Hamiltonian L = p^2/2 + V with its seed G.

    The seed satisfies X_L^2(G) = -2cLG for the recorded c: the paper's relation at c0 = 0.
    psi_window is the position interval on which the family is free of
    singularities; samplers respect it. catalog.make_base_family, the one
    constructor, sets every field but the kept programs. A base system also
    keeps the programs it traces at its first regular float point: the
    partials programs of G and L (partials) and the series program of L's
    flow (flow_jets), each until the rule it traced is patched.
    """

    family: str
    params: dict
    c: float
    V: PhaseFunction
    L: PhaseFunction
    G: PhaseFunction
    g_scalar: object
    eta_hat: float
    psi_window: tuple
    # {(compiler, f): (the f.rule it traced, its program)}, built by _kept on first use
    _programs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.V.dof != 1 or self.L.dof != 1 or self.G.dof != 1:
            raise ValueError("base system functions must live on the 1-dof phase space")

    def _kept(self, compiler, f, point, *args):
        """program(*args) for program = compiler(f, *point), traced at that float
        point the first time it is asked for, and kept once it answers there
        (where f is singular, the evaluation it fell back to raises, and the next
        float point traces again) until f.rule is no longer the rule it traced.
        Two threads asking at once may both build it; either serves."""
        rule, program = self._programs.get((compiler, f), (None, None))
        if rule is f.rule:
            return program(*args)
        program = compiler(f, *point)
        answer = program(*args)
        self._programs[compiler, f] = (f.rule, program)
        return answer

    def partials(self, f, q, p):
        """partials_at(f, q, p) for f = G or L, bit for bit.

        Where both coordinates are plain floats it runs f's straight-line
        program (compile_partials), kept by _kept: on the benchmark's oracle
        base 0.2-0.35 us a call against 6-11 us for partials_at's Tangent
        evaluation, after a trace of 0.08-0.15 ms (timeit minima, 2-core AMD
        EPYC). Every other leaf takes partials_at's evaluation.
        """
        if type(q[0]) is float and type(p[0]) is float:
            return self._kept(compile_partials, f, (q, p), q[0], p[0])
        return partials_at(f, q, p)

    def flow_jets(self, psi, p_psi, order):
        """flow_jets_by_evaluation(L, psi, p_psi, order), bit for bit.

        Under partials' leaf rule, where both coordinates are plain floats,
        it runs the series program of L's flow (compile_flow_series), kept by
        _kept, or the evaluation itself where L's tape has no series form.
        Every other leaf, and order 0 (the start point, which never touches
        L, so a singular first point would keep the evaluation), takes the
        evaluation on jets.
        """
        if order and type(psi) is float and type(p_psi) is float:
            return self._kept(compile_flow_series, self.L, (psi, p_psi), [psi], [p_psi], order)
        return flow_jets_by_evaluation(self.L, psi, p_psi, order)


def flow_jets_by_evaluation(L, psi, p_psi, order):
    """The L-flow's Taylor coefficients through t^order by evaluating L's partials on jets.

    Each order k evaluates the partials on the jets (Q, P) known through t^k
    and appends Q_{k+1} = [dL/dp]_k / (k+1) and P_{k+1} = -[dL/dpsi]_k / (k+1),
    recomputing every lower coefficient: O(order^3) coefficient work. It is
    what the series program (compile_flow_series) compiles.
    """
    Q, P = [psi], [p_psi]
    for k in range(order):
        _, dq, dp = partials_at(L, (Jet(Q),), (Jet(P),))
        Q.append(coefficient(dp[0], k) / (k + 1))
        P.append(-coefficient(dq[0], k) / (k + 1))
    return Jet(Q), Jet(P)


def compile_flow_series(L, psi, p_psi):
    """flow_jets_by_evaluation(L, ., ., order) as one program over the coefficient lists.

    partials_at(L) runs once on Trace leaves at the float point (psi, p_psi),
    and the tape writes its operations in series form (Tape.series), so the
    program computes each coefficient once, O(order^2) in all. The trace
    costs about 0.5 ms. program([psi], [p_psi], order) returns the two Jets
    flow_jets_by_evaluation(L, psi, p_psi, order) returns, bit for bit.
    Where L cannot be traced at (psi, p_psi), raises there or records an
    operation the series writer has no rule for (a power, abs, a comparison,
    a math function other than exp, sin and cos), the callable returned is
    that evaluation itself.
    """

    def fallback(Q, P, order):
        return flow_jets_by_evaluation(L, Q[0], P[0], order)

    tape = Tape()
    try:
        _, (dq,), (dp,) = partials_at(L, tape.inputs((psi,)), tape.inputs((p_psi,)))
        head, body = tape.series()
    except Exception:  # untraceable, singular here, or no series rule: evaluation on jets decides
        return fallback
    if not all(isinstance(x, (Trace, float, int)) for x in (dq, dp)):
        return fallback

    def coefficient_k(x):  # coefficient(x, k): a constant is a series of one term
        name = tape.atom(x)
        return f"{name}[k]" if isinstance(x, Trace) else f"({name} if not k else 0.0)"

    loop = body + [f"t0.append({coefficient_k(dp)} / (k + 1))",
                   f"t1.append(-{coefficient_k(dq)} / (k + 1))"]
    lines = head + ["for k in range(order):"] + ["    " + line for line in loop] + ["return Jet(t0), Jet(t1)"]
    tape.namespace["Jet"] = Jet
    return define("flow_series", tape.params + ["order"], lines, tape.namespace, "<flow series>")


class Extension:
    """An ExtensionSpec bound to a BaseSystem."""

    def __init__(self, spec, base):
        self.spec = spec
        self.base = base

    # -- pointwise seed data ---------------------------------------------

    def _seed_triple(self, q1, p1):
        """(G, X_L G, L) values at a base-block point; inputs may be duals."""
        Gv, Gq, Gp = self.base.partials(self.base.G, q1, p1)
        Lv, Lq, Lp = self.base.partials(self.base.L, q1, p1)
        xg = Gq[0] * Lp[0] - Gp[0] * Lq[0]
        return Gv, xg, Lv

    def _gn_xgn_values(self, G, XG, w, n):
        """Closed-form (G_n, X_L G_n) from powers of (G, X_L G, w = cL).

        X_L acts as a derivation with X_L(G) = XG, X_L(XG) = -2wG and
        X_L(L) = 0, which turns both sums into plain algebra.
        """
        gn = 0.0
        xgn = 0.0
        for j in range((n - 1) // 2 + 1):
            t = math.comb(n, 2 * j + 1) * (-2)**j * pow_(w, j)
            gn = gn + t * pow_(G, 2 * j + 1) * pow_(XG, n - 2 * j - 1)
            xgn = xgn + t * (2 * j + 1) * pow_(G, 2 * j) * pow_(XG, n - 2 * j)
            if n - 2 * j - 1 > 0:
                xgn = xgn - t * 2 * (n - 2 * j - 1) * w * pow_(G, 2 * j + 2) * pow_(XG, n - 2 * j - 2)
        return gn, xgn

    def _pd_values(self, r, gam, pu, w):
        """Closed-form P_{m,n,r} and D_{m,n,r}: one loop adds term j of each, sharing w^j = (cL)^j."""
        mg = (self.spec.m / self.spec.n) * gam
        P = 0.0
        D = 0.0
        for j in range(r // 2 + 1):
            wj = pow_(w, j)
            P = P + math.comb(r, 2 * j) * (-2)**j * pow_(mg, 2 * j) * pow_(pu, r - 2 * j) * wj
            if 2 * j < r:
                D = D + math.comb(r, 2 * j + 1) * (-2)**j * pow_(mg, 2 * j + 1) * pow_(pu, r - 2 * j - 1) * wj
        return P, (1.0 / self.spec.n) * D

    # -- G_n chain ---------------------------------------------------------

    def _xl_powers(self, q1, p1, n, count):
        """[X_L^j G_n for j < count] at a base-block point, by the G_n recursion on jets.

        G_{k+1} = X_L(G) G_k + (1/k) G X_L(G_k) with every factor a jet along
        the L-flow; each X_L shortens a jet by one, hence the flow order.
        """
        order = count + n - 2
        Q, P = self.base.flow_jets(q1[0], p1[0], order)
        g = self.base.G.rule((Q,), (P,))
        G = Jet([coefficient(g, j) for j in range(order + 1)])
        XG = G.deriv()
        g = G
        for k in range(1, n):
            g = XG * g + (1.0 / k) * G * g.deriv()
        return [math.factorial(j) * g.c[j] for j in range(count)]

    def _u_step(self, d, pu, gam):
        """X_L^j(U f) = p_u d_j + (m/n^2) gamma d_{j+1} from d_j = X_L^j f."""
        coef = self.spec.m / self.spec.n**2 * gam
        return [pu * d[j] + coef * d[j + 1] for j in range(len(d) - 1)]

    def gn_recursive(self, n):
        """G_n by the literal recursion G_{k+1} = X_L(G) G_k + (1/k) G X_L(G_k)."""
        if n < 1:
            raise ValueError("n must be positive")
        return PhaseFunction(lambda q, p: self._xl_powers(q, p, n, 1)[0], 1)

    def gn_closed(self, n):
        """G_n from its binomial expansion in G, X_L G and cL."""
        if n < 1:
            raise ValueError("n must be positive")
        self._require_base_constants()

        def rule(q, p):
            G, XG, L = self._seed_triple(q, p)
            return self._gn_xgn_values(G, XG, self.spec.c * L, n)[0]

        return PhaseFunction(rule, 1)

    # -- extended Hamiltonian ----------------------------------------------

    def hamiltonian(self):
        """H = p_u^2/2 - (m/n)^2 gamma' L, plus Omega/gamma^2 where Omega != 0: the paper's H at c0 = 0."""
        spec = self.spec
        prof = spec.gamma
        ratio2 = (spec.m / spec.n) ** 2
        L = self.base.L
        Om = spec.Omega
        omega_off = self._omega_is_zero()

        def rule(q, p):
            Lv = L.rule(q[1:], p[1:])
            g, gp = gamma_and_prime(prof, q[0])
            H = 0.5 * p[0] * p[0] - ratio2 * gp * Lv
            if omega_off:
                return H
            return H + Om / (g * g)

        return PhaseFunction(rule, 2)

    # -- characteristic first integrals ------------------------------------

    def k_recursive(self):
        """K_{m,n} = U^m(G_n) via the operator recursion (Omega must be 0)."""
        return self._integral(self._recursive_form, 0)

    def k_closed(self):
        """K_{m,n} = P_{m,n,m} G_n + D_{m,n,m} X_L(G_n) in closed form."""
        return self._integral(self._closed_form, 0)

    def _omega_is_zero(self):
        Om = self.spec.Omega
        return isinstance(Om, (int, float)) and Om == 0.0

    def _integral(self, form, s):
        """The PhaseFunction form(q, p, s): K for s = 0, which needs Omega = 0, and
        Kbar for s = m/2; both need the base's c."""
        if s == 0 and not self._omega_is_zero():
            raise ValueError("K_{m,n} requires Omega = 0; use kbar for Omega != 0")
        self._require_base_constants()
        return PhaseFunction(lambda q, p: form(q, p, s), 2)

    def _require_base_constants(self):
        """The seed relation X_L^2 G = -2cLG, which makes K an integral, holds
        for the base's own c only."""
        if self.spec.c != self.base.c:
            raise ValueError(f"K, Kbar and G_n need the base's c = {self.base.c}; "
                             f"the spec has c = {self.spec.c}")

    def _check_kbar_indices(self, s, r):
        if s < 1 or r < 1:
            raise ValueError("s and r must be strictly positive")
        if self.spec.m != 2 * s or self.spec.n != r:
            raise ValueError("kbar requires spec indices (m, n) = (2s, r)")

    def kbar_closed(self, s, r):
        """Kbar_{2s,r} = sum_j C(s,j) (2 Omega/gamma^2)^j U^{2(s-j)}(G_r), expanded."""
        self._check_kbar_indices(s, r)
        return self._integral(self._closed_form, s)

    def _closed_form(self, q, p, s, magnitudes=False):
        """sum_{j<=s} C(s,j) (2 Omega/gamma^2)^j (P_{m-2j} G_n + D_{m-2j} X_L G_n) at (q, p).

        s = 0 is K_{m,n} (no gamma^-2 is computed) and s = m/2 is Kbar_{m,n}.
        With magnitudes=True, G, X_L G, gamma, p_u and Omega enter as their
        absolute values and w = cL as -|w|, so every summand, whose factor
        (-2)^j meets w^j, is added as its absolute value: the intrinsic scale
        against which the cancelling sums are conditioned.
        """
        spec = self.spec
        G, XG, L = self._seed_triple(q[1:], p[1:])
        w = spec.c * L
        gam = gamma(spec.gamma, q[0])
        pu, Om = p[0], spec.Omega
        if magnitudes:
            G, XG, gam, pu, Om = map(abs, (G, XG, gam, pu, Om))
            w = -abs(w)
        gn, xgn = self._gn_xgn_values(G, XG, w, spec.n)

        def term(r):
            P, D = self._pd_values(r, gam, pu, w)
            return P * gn + D * xgn

        if s == 0:
            return term(spec.m)
        om_term = 2.0 * Om / (gam * gam)
        total = 0.0
        for j in range(s + 1):
            total = total + math.comb(s, j) * pow_(om_term, j) * term(spec.m - 2 * j)
        return total

    def _integral_choice(self):
        """(label, extension, s) of the integral this extension carries.

        K_{m,n} (s = 0) at Omega = 0, Kbar_{m,n} (s = m/2) for even m and
        Kbar_{2m,2n} (s = m) on the doubled spec for odd m.
        """
        m, n = self.spec.m, self.spec.n
        if self._omega_is_zero():
            return f"K({m},{n})", self, 0
        if m % 2 == 0:
            return f"Kbar({m},{n})", self, m // 2
        doubled = Extension(replace(self.spec, m=2 * m, n=2 * n), self.base)
        return f"Kbar({2 * m},{2 * n})", doubled, m

    def first_integral(self):
        """(label, PhaseFunction) of the integral _integral_choice() names."""
        label, ext, s = self._integral_choice()
        return label, (ext.k_closed() if s == 0 else ext.kbar_closed(s, ext.spec.n))

    def first_integral_degree(self):
        """Momentum degree of first_integral(), the doubled spec's for odd m at Omega != 0."""
        return self._integral_choice()[1].momentum_degree_bound()

    def kbar_recursive(self, s, r):
        """Kbar_{2s,r} = (U^2 + 2 Omega gamma^-2)^s (G_r) by operator application."""
        self._check_kbar_indices(s, r)
        return self._integral(self._recursive_form, s)

    def _recursive_form(self, q, p, s):
        """_closed_form's recursive twin: U^m(G_n) at (q, p) for s = 0 (K_{m,n})
        and (U^2 + 2 Omega/gamma^2)^s(G_n) for s = m/2 (Kbar_{m,n})."""
        spec = self.spec
        d = self._xl_powers(q[1:], p[1:], spec.n, spec.m + 1)
        gam = gamma(spec.gamma, q[0])
        if s == 0:
            for _ in range(spec.m):
                d = self._u_step(d, p[0], gam)
            return d[0]
        om = 2.0 * spec.Omega / pow_(gam, 2)
        for _ in range(s):
            u2 = self._u_step(self._u_step(d, p[0], gam), p[0], gam)
            d = [a + om * b for a, b in zip(u2, d)]
        return d[0]

    def momentum_degree_bound(self):
        """Exact polynomial degree of K (and Kbar) in the momenta: m + 2n - 1."""
        return self.spec.m + 2 * self.spec.n - 1

    def k_magnitude(self, x):
        """Sum of absolute summand magnitudes of the closed form of K at x.

        agreement tolerances are taken relative to this scale: the value of
        K itself can sit many orders below it through cancellation.
        """
        return self._closed_form(x.q, x.p, 0, magnitudes=True)

    def kbar_magnitude(self, x, s, r):
        """Sum of absolute summand magnitudes of the closed form of Kbar_{2s,r} at x."""
        self._check_kbar_indices(s, r)
        return self._closed_form(x.q, x.p, s, magnitudes=True)


def functional_independence(fs, x):
    """Rank of the Jacobian of fs w.r.t. all phase coordinates at x."""
    return int(jacobian_rank(np.array([gradient(f, x) for f in fs])))


def row_norms(jac):
    """Euclidean norms of the rows (last axis) of jac, safe from overflow and underflow.

    A row whose sum of squares is a normal float keeps sqrt(vecdot), bit for bit.
    A row of finite entries whose squares overflow (|grad K| reaches 1e248 at high
    degree), or underflow while an entry is nonzero (below about 1.5e-154), is first
    scaled by its largest |entry|, as LAPACK's dnrm2 does (Blue 1978), so its norm
    stays finite and nonzero. bracket_scale's _float_norm rounds one row alike, in floats.
    """
    with np.errstate(over="ignore"):  # overflowing rows are rescaled below
        sq = np.vecdot(jac, jac)
    norms = np.sqrt(sq)
    off = (np.isinf(sq) | (sq < sys.float_info.min)) & np.isfinite(jac).all(axis=-1)
    off &= jac.any(axis=-1)  # a zero row keeps its norm 0.0
    if off.any():
        rows = jac[off]
        big = np.abs(rows).max(axis=-1, keepdims=True)
        unit = rows / big
        norms[off] = big[:, 0] * np.sqrt(np.vecdot(unit, unit))
    return norms


def jacobian_rank(jac):
    """Numerical rank of a Jacobian whose rows are gradients at one point.

    A stack of Jacobians, shaped (points, functions, coordinates), gives
    one rank per point. Rows are normalized before the SVD: gradients of
    high-degree integrals run 8+ orders larger than those of H and L, which
    would otherwise push genuinely independent directions under any
    relative threshold. A zero leading singular value gives rank 0.
    """
    norms = row_norms(jac)[..., None]
    safe = np.where(norms > 0.0, norms, 1.0)
    svals = np.linalg.svd(jac / safe, compute_uv=False)
    return np.sum(svals > 1e-8 * svals[..., :1], axis=-1)


def _float_norm(row):
    """row_norms of one finite float row, bit for bit, in floats. Its sum of squares is vecdot's
    fused chain s = round(v*v + s), which s += v*v and math.hypot miss: each step is exact
    in ints and rounded once by int true division, which CPython rounds correctly."""
    s = 0.0
    try:
        for v in row:
            (a, b), (c, d) = v.as_integer_ratio(), s.as_integer_ratio()
            s = (a * a * d + c * b * b) / (b * b * d)
    except OverflowError:  # such a row is rescaled below
        s = math.inf
    if (s == math.inf or s < sys.float_info.min) and (big := max(map(abs, row))):
        return big * _float_norm([v / big for v in row])
    return math.sqrt(s)


def bracket_scale(f, g, x):
    """The relative scale |grad f||grad g| used by every bracket tolerance.

    Its norms are row_norms', taken in floats (_float_norm), so a point loads no
    numpy. An inf or NaN gradient entry raises ValueError naming x, as does a
    scale outside the normal doubles: an infinite scale would make any bracket
    read as 0 relative to it, and one that underflows while both gradients are
    nonzero would let only an exact 0 bracket pass a tolerance.
    """
    rows = [[float(primal(v)) for v in dq + dp] for _, dq, dp in (partials_at(h, x.q, x.p) for h in (f, g))]
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError(f"non-finite gradient at {x}")
    nf, ng = map(_float_norm, rows)
    scale = nf * ng  # a Python float product overflows to inf without a warning
    if math.isinf(scale):
        raise ValueError(f"the bracket scale |grad f||grad g| overflows double precision at {x}")
    if scale < sys.float_info.min and nf > 0.0 and ng > 0.0:
        raise ValueError(f"the bracket scale |grad f||grad g| underflows double precision at {x}")
    return scale
