from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from extham import tagged_trig
from extham.catalog import (
    exp_base,
    make_curved_hamiltonian,
    make_flat_ttw_hamiltonian,
    make_minkowski_hamiltonian,
    trig_base,
)
from extham.duals import Dual, new_tag
from extham.extension import (
    Extension,
    ExtensionSpec,
    bracket_scale,
    functional_independence,
    row_norms,
    seed_equation_residual,
    seed_equation_terms,
)
from extham.phase import (
    PhaseFunction,
    PhasePoint,
    batch_blocks,
    fd_gradient,
    hamiltonian_vector_field,
    lift_last,
    partials_at,
    poisson_bracket,
)
from extham.sampling import sample_points
from extham.tagged_trig import GammaProfile, gamma, gamma_prime

import references
from references import leaf_values


@pytest.fixture(scope="module")
def base():
    return exp_base(0.7, 1.3)


@pytest.fixture(scope="module")
def profile():
    return GammaProfile.from_c_C(-4.0, 0.0)


def ext(base, profile, m, n, Omega=0.0):
    return Extension(ExtensionSpec(m, n, -4.0, 0.0, Omega, profile), base)


def u_apply(e, f):
    """U(f) = p_u f + (m/n^2) gamma X_L(f) by nested duals, X_L acting on the base block only."""
    f = lift_last(f, 2)
    L = lift_last(e.base.L, 2)
    coef = e.spec.m / e.spec.n**2
    prof = e.spec.gamma

    def rule(q, p):
        fv, fq, fp = partials_at(f, q, p, (1,))
        _, Lq, Lp = partials_at(L, q, p, (1,))
        xl = fq[0] * Lp[0] - fp[0] * Lq[0]
        return p[0] * fv + coef * gamma(prof, q[0]) * xl

    return PhaseFunction(rule, 2)


def test_spec_validation(profile):
    with pytest.raises(ValueError):
        ExtensionSpec(0, 1, -4.0, 0.0, 0.0, profile)
    with pytest.raises(TypeError):
        ExtensionSpec(1.5, 1, -4.0, 0.0, 0.0, profile)
    with pytest.raises(ValueError):
        ExtensionSpec(1, 1, 0.0, 0.0, 0.0, GammaProfile.from_c_C(0.0, 1.0))
    with pytest.raises(ValueError):
        ExtensionSpec(1, 1, -2.0, 0.0, 0.0, profile)  # profile.c mismatch
    spec = ExtensionSpec(6, 4, -4.0, 0.0, 0.0, profile)
    assert spec.m == 6  # stored as given, not reduced by gcd(m, n)


def test_seed_residual_exp_family(base):
    for x in sample_points(20, 31, 1):
        a, b = seed_equation_terms(base, -4.0, 0.0, x)
        assert abs(a + b) <= 1e-10 * (1.0 + abs(a) + abs(b))


def test_seed_residual_zero_seed(base):
    degenerate = type(base)(
        family="zero-seed",
        params={},
        c=-4.0,
        c0=0.0,
        V=base.V,
        L=base.L,
        G=PhaseFunction(lambda q, p: base.G.rule(q, p) * 0.0, 1),
        eta_hat=2.0,
    )
    for x in sample_points(5, 32, 1):
        assert seed_equation_residual(degenerate, -4.0, 0.0, x) == 0.0


def test_seed_residual_trig_family_with_fd_oracle():
    tb = trig_base(1.0, 0.2, 1.0, 0.5, 2.0)
    assert tb.c == pytest.approx(4.0)
    XG = hamiltonian_vector_field(tb.L, tb.G)
    for x in sample_points(15, 33, 1, q_range=tb.psi_window):
        r = seed_equation_residual(tb, tb.c, 0.0, x)
        a, b = seed_equation_terms(tb, tb.c, 0.0, x)
        assert abs(r) <= 1e-10 * (1.0 + abs(a) + abs(b))
        # independent oracle: central finite differences of X_L applied to X_L(G)
        h = 1e-5
        q, pp = x.q[0], x.p[0]
        dpsi = (XG(PhasePoint((q + h,), (pp,))) - XG(PhasePoint((q - h,), (pp,)))) / (2 * h)
        dp = (XG(PhasePoint((q,), (pp + h,))) - XG(PhasePoint((q,), (pp - h,)))) / (2 * h)
        Vp = (tb.V(PhasePoint((q + h,), (0.0,))) - tb.V(PhasePoint((q - h,), (0.0,)))) / (2 * h)
        x2g_fd = dpsi * pp - dp * Vp
        assert a == pytest.approx(x2g_fd, abs=2e-4 * (1 + abs(a)))


def test_gn_recursion_hand_oracles(base, profile):
    e = ext(base, profile, 1, 1)
    XG = hamiltonian_vector_field(base.L, base.G)
    g1, g2, g3 = e.gn_recursive(1), e.gn_recursive(2), e.gn_recursive(3)
    for x in sample_points(10, 34, 1):
        G, X = base.G(x), XG(x)
        w = -4.0 * base.L(x)
        assert g1(x) == pytest.approx(G, rel=1e-14)
        # hand expansion: G2 = 2 G XG, G3 = 3 G XG^2 - 2(cL) G^3
        assert g2(x) == pytest.approx(2 * G * X, rel=1e-12)
        assert g3(x) == pytest.approx(3 * G * X**2 - 2 * w * G**3, rel=1e-11)


def test_gn_closed_equals_recursive(base, profile):
    e = ext(base, profile, 1, 1)
    pts = sample_points(20, 35, 1)
    for n in range(1, 6):
        gr, gc = e.gn_recursive(n), e.gn_closed(n)
        for x in pts:
            assert abs(gr(x) - gc(x)) <= 1e-11 * (1.0 + abs(gc(x)))


def test_xl_gn_closed_matches_instrumented_derivative(base, profile):
    e = ext(base, profile, 1, 1)
    for n in (2, 3, 4):
        algebraic = references.xl_gn_closed(e, n)
        instrumented = hamiltonian_vector_field(base.L, e.gn_closed(n))
        for x in sample_points(10, 36, 1):
            assert algebraic(x) == pytest.approx(instrumented(x), rel=1e-11)


def test_extended_hamiltonian_form(base, profile):
    e = ext(base, profile, 4, 1)
    H = e.hamiltonian()
    for x in sample_points(10, 37, 2):
        u = x.q[0]
        L = base.L(PhasePoint(x.q[1:], x.p[1:]))
        # c=-4, kappa=0: -(m/n)^2 gamma' = (m/n)^2/(c u^2) = -4/u^2 for m/n = 4
        expected = 0.5 * x.p[0] ** 2 - 4.0 / u**2 * L
        assert H(x) == pytest.approx(expected, rel=1e-13)
    # Omega=1 adds 1/gamma^2 = c^2 u^2 = 16 u^2
    H1 = ext(base, profile, 4, 1, Omega=1.0).hamiltonian()
    for x in sample_points(5, 38, 2):
        assert H1(x) - H(x) == pytest.approx(16.0 * x.q[0] ** 2, rel=1e-11)


# (c, kappa, translated) on every gamma branch: c = 0, principal with kappa
# of either sign, translated with kappa of either sign
GAMMA_BRANCHES = [(0.0, 0.0, False), (-1.0, 2.0, False), (-1.0, -2.0, False),
                  (-1.0, 2.0, True), (-1.0, -2.0, True)]


def _two_call_hamiltonian(e):
    """H with gamma and gamma' each from its own call, as H was first written."""
    spec = e.spec
    ratio2 = (spec.m / spec.n) ** 2
    L = e.base.L

    def rule(q, p):
        u = q[0]
        H = 0.5 * p[0] * p[0] - ratio2 * gamma_prime(spec.gamma, u) * L.rule(q[1:], p[1:])
        g = gamma(spec.gamma, u)
        return H + ratio2 * spec.c0 * g * g + spec.Omega / (g * g)

    return PhaseFunction(rule, 2)


def _branch_extension(base, c, kappa, translated):
    prof = (GammaProfile(0.0, 1.5, 0.0) if c == 0.0
            else GammaProfile.from_c_kappa(c, kappa, translated=translated))
    return Extension(ExtensionSpec(2, 1, c, 0.5, 0.3, prof), base)


@pytest.mark.parametrize("c,kappa,translated", GAMMA_BRANCHES)
def test_hamiltonian_equals_two_gamma_calls(base, c, kappa, translated):
    # one (gamma, gamma') pair per rule call; H and its partials stay bit-identical
    e = _branch_extension(base, c, kappa, translated)
    H, ref = e.hamiltonian(), _two_call_hamiltonian(e)
    pts = sample_points(8, 41, 2, q_ranges=((0.3, 1.0), base.psi_window))
    tag = new_tag()
    for x in pts:
        q = (Dual(x.q[0], 0.7, tag), x.q[1])
        for args in ((x.q, x.p), (q, x.p)):
            assert leaf_values(H.rule(*args)) == leaf_values(ref.rule(*args))
        assert leaf_values(partials_at(H, x.q, x.p, range(2))) == leaf_values(
            partials_at(ref, x.q, x.p, range(2)))
    q, p = batch_blocks(np.array([x.q + x.p for x in pts]))
    assert leaf_values(H.rule(q, p)) == leaf_values(ref.rule(q, p))
    assert leaf_values(partials_at(H, q, p, range(2))) == leaf_values(
        partials_at(ref, q, p, range(2)))


def test_hamiltonian_computes_tagged_s_once_per_rule_call(base, monkeypatch):
    calls = []
    original = tagged_trig.tagged_S

    def counted(kappa, x):
        calls.append(1)
        return original(kappa, x)

    monkeypatch.setattr(tagged_trig, "tagged_S", counted)
    H = _branch_extension(base, -1.0, 2.0, False).hamiltonian()
    H.rule((0.7, 0.9), (0.4, -0.3))
    assert len(calls) == 1
    partials_at(H, (0.7, 0.9), (0.4, -0.3), range(2))  # four seeded rule calls
    assert len(calls) == 5


def test_u_operator_examples(base, profile):
    e = ext(base, profile, 1, 1)
    one = PhaseFunction(lambda q, p: 1.0, 2)
    Uone = u_apply(e, one)
    XG = hamiltonian_vector_field(base.L, base.G)
    UG = u_apply(e, base.G)
    for x in sample_points(10, 39, 2):
        assert Uone(x) == pytest.approx(x.p[0], rel=1e-14)
        base_pt = PhasePoint(x.q[1:], x.p[1:])
        expected = x.p[0] * base.G(base_pt) + gamma(profile, x.q[0]) * XG(base_pt)
        assert UG(x) == pytest.approx(expected, rel=1e-13)


def test_u_squared_matches_pd_closed_form(base, profile):
    # the P/D expansion pairs U_{m,n} with the matching G_n
    e = ext(base, profile, 3, 1)
    U2G = u_apply(e, u_apply(e, base.G))
    XG = hamiltonian_vector_field(base.L, base.G)
    for x in sample_points(10, 40, 2):
        gam = gamma(profile, x.q[0])
        bp = PhasePoint(x.q[1:], x.p[1:])
        w = -4.0 * base.L(bp)
        P, D = e._pd_values(2, gam, x.p[0], w)
        expected = P * base.G(bp) + D * XG(bp)
        assert U2G(x) == pytest.approx(expected, rel=1e-12)
    # intermediate power r=2 < m with the n=2 chain seed G_2
    e2 = ext(base, profile, 3, 2)
    g2 = e2.gn_closed(2)
    xg2 = references.xl_gn_closed(e2, 2)
    U2G2 = u_apply(e2, u_apply(e2, g2))
    for x in sample_points(10, 40, 2):
        gam = gamma(profile, x.q[0])
        bp = PhasePoint(x.q[1:], x.p[1:])
        w = -4.0 * base.L(bp)
        P, D = e2._pd_values(2, gam, x.p[0], w)
        expected = P * g2(bp) + D * xg2(bp)
        assert U2G2(x) == pytest.approx(expected, rel=1e-12)


def test_k_11_closed_form_and_d_special_case(base, profile):
    # D_{1,n,1} = gamma/n^2 is the general sum at (m, r) = (1, 1)
    e = ext(base, profile, 1, 1)
    K = e.k_closed()
    XG = hamiltonian_vector_field(base.L, base.G)
    for x in sample_points(10, 41, 2):
        gam = gamma(profile, x.q[0])
        _, D = e._pd_values(1, gam, x.p[0], 0.0)
        assert D == pytest.approx(gam, rel=1e-14)
        bp = PhasePoint(x.q[1:], x.p[1:])
        assert K(x) == pytest.approx(x.p[0] * base.G(bp) + gam * XG(bp), rel=1e-12)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 2), (4, 1), (5, 3), (8, 3), (16, 3)])
def test_k_recursive_equals_closed(base, profile, m, n):
    e = ext(base, profile, m, n)
    kr, kc = e.k_recursive(), e.k_closed()
    for x in sample_points(20, 42, 2):
        scale = 1.0 + abs(kc(x)) + e.k_magnitude(x)
        assert abs(kr(x) - kc(x)) <= 1e-10 * scale


def test_k_at_zero_momentum_degenerate_point(base, profile):
    e = ext(base, profile, 4, 1)
    x = PhasePoint((1.1, 0.8), (0.0, 0.0))
    assert e.k_recursive()(x) == pytest.approx(e.k_closed()(x), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 2), (4, 1), (5, 3)])
def test_brackets_vanish_omega_zero(base, profile, m, n):
    e = ext(base, profile, m, n)
    H, K = e.hamiltonian(), e.k_closed()
    for x in sample_points(50, 43, 2):
        b = poisson_bracket(H, K, x)
        assert abs(b) <= 1e-9 * bracket_scale(H, K, x)


def test_l_is_quadratic_first_integral(base, profile):
    e = ext(base, profile, 4, 1)
    H, L2 = e.hamiltonian(), lift_last(base.L, 2)
    for x in sample_points(20, 44, 2):
        assert abs(poisson_bracket(H, L2, x)) <= 1e-10 * (1.0 + bracket_scale(H, L2, x))


def test_kbar_reduces_to_k_at_omega_zero(base, profile):
    e = ext(base, profile, 2, 1)
    kb, k = e.kbar_closed(1, 1), e.k_closed()
    for x in sample_points(10, 45, 2):
        assert kb(x) == k(x)
        assert e.kbar_magnitude(x, 1, 1) == e.k_magnitude(x)


@pytest.mark.parametrize("twos,r", [(2, 1), (4, 3), (6, 1)])
@pytest.mark.parametrize("Omega", [0.3, -0.7])
def test_kbar_brackets_and_operator_equality(base, profile, twos, r, Omega):
    e = ext(base, profile, twos, r, Omega=Omega)
    H = e.hamiltonian()
    kb_c = e.kbar_closed(twos // 2, r)
    kb_r = e.kbar_recursive(twos // 2, r)
    for x in sample_points(15, 46, 2):
        assert abs(poisson_bracket(H, kb_c, x)) <= 1e-9 * bracket_scale(H, kb_c, x)
        scale = 1.0 + abs(kb_c(x)) + e.kbar_magnitude(x, twos // 2, r)
        assert abs(kb_c(x) - kb_r(x)) <= 1e-10 * scale


@pytest.mark.parametrize("Omega", [0.3, -0.7])
def test_kbar_8_3_recursive_equals_closed(base, profile, Omega):
    e = ext(base, profile, 8, 3, Omega=Omega)
    kb_c, kb_r = e.kbar_closed(4, 3), e.kbar_recursive(4, 3)
    for x in sample_points(20, 53, 2):
        scale = 1.0 + abs(kb_c(x)) + e.kbar_magnitude(x, 4, 3)
        assert abs(kb_c(x) - kb_r(x)) <= 1e-10 * scale


@pytest.mark.parametrize("m,n", [(5, 3), (16, 3)])
def test_recursive_k_base_rule_calls_grow_linearly(profile, m, n):
    # one G call plus two L calls per order of the flow jet, m + n - 1 orders
    b = exp_base(0.7, 1.3)
    calls = []

    def counted(rule):
        def wrapper(q, p):
            calls.append(1)
            return rule(q, p)

        return wrapper

    b.G.rule, b.L.rule = counted(b.G.rule), counted(b.L.rule)
    kr = Extension(ExtensionSpec(m, n, -4.0, 0.0, 0.0, profile), b).k_recursive()
    for x in sample_points(3, 54, 2):
        calls.clear()
        kr(x)
        assert len(calls) == 2 * (m + n - 1) + 1


def test_recursive_route_uses_no_closed_form(base, profile, monkeypatch):
    ek, ekbar = ext(base, profile, 5, 3), ext(base, profile, 4, 3, Omega=0.3)
    x, bx = PhasePoint((1.1, 0.7), (0.8, -0.6)), PhasePoint((0.7,), (-0.6,))

    def recursive_values():
        return [ek.k_recursive()(x), ek.gn_recursive(3)(bx), ekbar.kbar_recursive(2, 3)(x)]

    expected = recursive_values()

    def refuse(*args, **kwargs):
        raise AssertionError("closed form used by the recursive route")

    for name in ("_gn_xgn_values", "_pd_values", "_closed_form"):
        monkeypatch.setattr(Extension, name, refuse)
    assert recursive_values() == expected


def test_kbar_odd_m_uses_doubled_indices(base, profile):
    # H with (m, n) = (3, 2) and Omega != 0: the integral is Kbar_{6,4}
    H = ext(base, profile, 3, 2, Omega=0.3).hamiltonian()
    ek = ext(base, profile, 6, 4, Omega=0.3)
    kb = ek.kbar_closed(3, 4)
    for x in sample_points(20, 47, 2):
        assert abs(poisson_bracket(H, kb, x)) <= 1e-9 * bracket_scale(H, kb, x)


def test_kbar_index_validation(base, profile):
    e = ext(base, profile, 3, 2, Omega=0.3)
    with pytest.raises(ValueError):
        e.kbar_closed(1, 2)  # m != 2s
    with pytest.raises(ValueError):
        e.k_closed()  # Omega != 0
    with pytest.raises(ValueError):
        ext(base, profile, 2, 1).kbar_closed(0, 1)


def test_momentum_degree_bound_vandermonde(base, profile):
    # K(q, lambda p) is a polynomial in lambda of degree exactly m + 2n - 1;
    # the spec's m+n bound holds only for n = 1 (see decisions ledger)
    for m, n in [(2, 1), (4, 1), (3, 2), (5, 3)]:
        e = ext(base, profile, m, n)
        K = e.k_closed()
        deg = e.momentum_degree_bound()
        assert deg == m + 2 * n - 1
        x = PhasePoint((1.1, 0.7), (0.8, -0.6))
        lams = np.arange(1.0, deg + 4.0)
        vals = np.array(
            [K(PhasePoint(x.q, tuple(lam * pi for pi in x.p))) for lam in lams]
        )
        V = np.vander(lams, deg + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(V, vals, rcond=None)
        resid = np.max(np.abs(V @ coef - vals))
        assert resid <= 1e-9 * (1.0 + np.max(np.abs(vals)))
        if n > 1:
            # degree m+n is genuinely insufficient
            Vs = np.vander(lams, m + n + 1, increasing=True)
            cs, *_ = np.linalg.lstsq(Vs, vals, rcond=None)
            assert np.max(np.abs(Vs @ cs - vals)) > 1e-6 * np.max(np.abs(vals))


def test_functional_independence_ranks(base, profile):
    e = ext(base, profile, 4, 1)
    H, K = e.hamiltonian(), e.k_closed()
    L2 = lift_last(base.L, 2)
    x = sample_points(1, 48, 2)[0]
    H2 = PhaseFunction(lambda q, p: H.rule(q, p) * H.rule(q, p), 2)
    H1 = PhaseFunction(lambda q, p: H.rule(q, p) + 1.0, 2)
    assert functional_independence([H, H2, H1], x) == 1
    assert functional_independence([H, L2], x) == 2
    for x in sample_points(20, 49, 2):
        assert functional_independence([H, L2, K], x) == 3


def test_row_norms_rescale_only_overflowing_rows():
    rng = np.random.default_rng(3)
    jac = rng.standard_normal((6, 3, 4))
    plain = np.sqrt(np.vecdot(jac, jac))
    assert row_norms(jac).tolist() == plain.tolist()
    jac[2, 1] = [3e200, -4e200, 0.0, 1e199]
    jac[4, 0, 0] = np.inf
    norms = row_norms(jac)
    assert norms[2, 1] == pytest.approx(np.hypot(np.hypot(3e200, 4e200), 1e199), rel=1e-15)
    assert norms[4, 0] == np.inf
    keep = np.ones((6, 3), bool)
    keep[2, 1] = keep[4, 0] = False
    assert norms[keep].tolist() == plain[keep].tolist()


def test_memoized_chain_matches_fresh_application(base, profile):
    e = ext(base, profile, 3, 1)
    memo = e.k_recursive()
    fresh = u_apply(e, u_apply(e, u_apply(e, e.gn_recursive(1))))
    for x in sample_points(5, 50, 2):
        assert memo(x) == pytest.approx(fresh(x), rel=1e-13)


@pytest.mark.parametrize("eta", [1.0, 1.4, 2.5])
def test_eta_is_inessential_for_the_structure(eta):
    # eta stays an explicit parameter; the bracket identities hold for any
    # value, so nothing silently normalizes it away
    b = exp_base(0.7, 1.3, eta)
    prof = GammaProfile.from_c_C(b.c, 0.0)
    e = Extension(ExtensionSpec(3, 2, b.c, 0.0, 0.3, prof), b)
    H = e.hamiltonian()
    kb = Extension(ExtensionSpec(6, 4, b.c, 0.0, 0.3, prof), b).kbar_closed(3, 4)
    for x in sample_points(10, 52, 2):
        assert abs(poisson_bracket(H, kb, x)) <= 1e-9 * bracket_scale(H, kb, x)


def test_gradients_match_fd_for_k(base, profile):
    e = ext(base, profile, 2, 1)
    K = e.k_closed()
    from extham.phase import gradient

    for x in sample_points(5, 51, 2):
        ad = gradient(K, x)
        fd = fd_gradient(K, x)
        assert np.max(np.abs(ad - fd)) <= 1e-5 * (1.0 + np.max(np.abs(fd)))


@pytest.mark.parametrize("m,n,omega", [(1, 1, 0.0), (2, 1, 0.0), (3, 2, 0.0), (4, 1, 0.0),
                                       (6, 1, 0.0), (5, 3, 0.0), (2, 1, 0.3), (4, 1, 0.3),
                                       (4, 3, 0.3)])
def test_recursive_forms_equal_the_reference_rules(base, profile, m, n, omega):
    # the one recursive evaluator reproduces the separate K and Kbar rules bit for bit
    e = ext(base, profile, m, n, Omega=omega)
    if omega == 0.0:
        f, ref = e.k_recursive(), lambda q, p: references.k_recursive_value(e, q, p)
    else:
        f, ref = e.kbar_recursive(m // 2, n), (
            lambda q, p: references.kbar_recursive_value(e, m // 2, n, q, p))
    pts = sample_points(4, 55 + m + n, 2)
    for x in pts:
        assert f.rule(x.q, x.p) == ref(x.q, x.p)
    x = pts[0]
    assert leaf_values(partials_at(f, x.q, x.p, range(2))) == leaf_values(
        partials_at(PhaseFunction(ref, 2), x.q, x.p, range(2)))
    q, p = batch_blocks(np.array([x.q + x.p for x in pts]))
    assert leaf_values(f.rule(q, p)) == leaf_values(ref(q, p))


def _closed_form_cases():
    """(label, extension, s, q windows): the oracle's K and Kbar cases, with Omega < 0 too,
    and the integrals of high-degree Minkowski, curved and flat models."""
    b, prof = exp_base(0.7, 1.3), GammaProfile.from_c_C(-4.0, 0.0)
    cases = [(f"K({m},{n})", ext(b, prof, m, n), 0)
             for m, n in [(1, 1), (2, 1), (3, 2), (4, 1), (6, 1), (5, 3)]]
    cases += [(f"Kbar({m},{n})", ext(b, prof, m, n, Omega=om), m // 2)
              for m, n in [(2, 1), (4, 1), (4, 3)] for om in (0.3, -0.7)]
    cases = [case + (None,) for case in cases]
    tb = trig_base(1.0, 0.2, 1.0, 0.5, 1.0)
    models = [make_minkowski_hamiltonian(Fraction(k), 1.0, 2.0, om)
              for k in ("5/3", "1/3", "9/2") for om in (0.0, 0.3)]
    models += [make_curved_hamiltonian(bb, Fraction(3, 2), kappa, om)
               for bb in (tb, b) for kappa in (1, -1) for om in (0.0, -0.2)]
    models += [make_flat_ttw_hamiltonian(tb, 3, 2, om) for om in (0.0, 0.2)]
    for model in models:
        windows = None if model.id == "minkowski" else model.q_windows
        cases.append(model.extension._integral_choice() + (windows,))
    return cases


def test_closed_forms_and_magnitudes_equal_the_reference_sums():
    # magnitudes are switched once in _closed_form; the earlier sums switched them in
    # each helper, and every value, magnitude and partial must stay bit for bit
    for label, e, s, windows in _closed_form_cases():
        if s == 0:
            value, magnitude = e.k_closed(), e.k_magnitude
        else:
            value, magnitude = e.kbar_closed(s, e.spec.n), (
                lambda x, e=e, s=s: e.kbar_magnitude(x, s, e.spec.n))
        ref = PhaseFunction(lambda q, p, e=e, s=s: references.closed_form(e, q, p, s), 2)
        pts = sample_points(4, 61, 2, q_ranges=windows)
        for x in pts:
            assert value(x) == ref(x), label
            assert magnitude(x) == references.closed_form(e, x.q, x.p, s, True), label
        x = pts[0]
        assert leaf_values(partials_at(value, x.q, x.p, range(2))) == leaf_values(
            partials_at(ref, x.q, x.p, range(2))), label
        q, p = batch_blocks(np.array([x.q + x.p for x in pts]))
        assert leaf_values(partials_at(value, q, p, range(2))) == leaf_values(
            partials_at(ref, q, p, range(2))), label
        assert leaf_values(magnitude(SimpleNamespace(q=q, p=p))) == leaf_values(
            references.closed_form(e, q, p, s, True)), label
