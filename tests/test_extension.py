import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from extham import duals as dm
from extham import phase, tagged_trig
from extham.catalog import (
    BASES,
    exp_base,
    make_base_family,
    make_curved_hamiltonian,
    make_flat_ttw_hamiltonian,
    make_minkowski_hamiltonian,
    trig_base,
)
from extham.duals import Dual, Jet, Tape, new_tag, primal
from extham.extension import (
    BaseSystem,
    Extension,
    ExtensionSpec,
    _float_norm,
    bracket_scale,
    compile_flow_series,
    flow_jets_by_evaluation,
    functional_independence,
    jacobian_rank,
    row_norms,
)
from extham.phase import (
    PhaseFunction,
    PhasePoint,
    compile_partials,
    gradient,
    hamiltonian_vector_field,
    lift_last,
    partials_at,
    poisson_bracket,
)
from extham.sampling import sample_points, sample_scalars
from extham.tagged_trig import GammaProfile, gamma, gamma_prime

import references
from references import (
    columns,
    fd_gradient,
    leaf_bits,
    leaf_values,
    phase_points,
    seed_equation_residual,
    seed_equation_terms,
)


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
        fv, fq, fp = partials_at(f, q, p)
        _, Lq, Lp = partials_at(L, q, p)
        xl = fq[1] * Lp[1] - fp[1] * Lq[1]
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
    for x in phase_points(sample_points(20, 31, 1)):
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
        g_scalar=None,
        eta_hat=2.0,
        psi_window=base.psi_window,
    )
    for x in phase_points(sample_points(5, 32, 1)):
        assert seed_equation_residual(degenerate, -4.0, 0.0, x) == 0.0


def test_seed_residual_trig_family_with_fd_oracle():
    tb = trig_base(1.0, 0.2, 1.0, 0.5, 2.0)
    assert tb.c == pytest.approx(4.0)
    XG = hamiltonian_vector_field(tb.L, tb.G)
    for x in phase_points(sample_points(15, 33, 1, q_ranges=(tb.psi_window,))):
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
    for x in phase_points(sample_points(10, 34, 1)):
        G, X = base.G(x), XG(x)
        w = -4.0 * base.L(x)
        assert g1(x) == pytest.approx(G, rel=1e-14)
        # hand expansion: G2 = 2 G XG, G3 = 3 G XG^2 - 2(cL) G^3
        assert g2(x) == pytest.approx(2 * G * X, rel=1e-12)
        assert g3(x) == pytest.approx(3 * G * X**2 - 2 * w * G**3, rel=1e-11)


def test_gn_closed_equals_recursive(base, profile):
    e = ext(base, profile, 1, 1)
    pts = phase_points(sample_points(20, 35, 1))
    for n in range(1, 6):
        gr, gc = e.gn_recursive(n), e.gn_closed(n)
        for x in pts:
            assert abs(gr(x) - gc(x)) <= 1e-11 * (1.0 + abs(gc(x)))


def test_xl_gn_closed_matches_instrumented_derivative(base, profile):
    e = ext(base, profile, 1, 1)
    for n in (2, 3, 4):
        algebraic = references.xl_gn_closed(e, n)
        instrumented = hamiltonian_vector_field(base.L, e.gn_closed(n))
        for x in phase_points(sample_points(10, 36, 1)):
            assert algebraic(x) == pytest.approx(instrumented(x), rel=1e-11)


def test_extended_hamiltonian_form(base, profile):
    e = ext(base, profile, 4, 1)
    H = e.hamiltonian()
    for x in phase_points(sample_points(10, 37, 2)):
        u = x.q[0]
        L = base.L(PhasePoint(x.q[1:], x.p[1:]))
        # c=-4, kappa=0: -(m/n)^2 gamma' = (m/n)^2/(c u^2) = -4/u^2 for m/n = 4
        expected = 0.5 * x.p[0] ** 2 - 4.0 / u**2 * L
        assert H(x) == pytest.approx(expected, rel=1e-13)
    # Omega=1 adds 1/gamma^2 = c^2 u^2 = 16 u^2
    H1 = ext(base, profile, 4, 1, Omega=1.0).hamiltonian()
    for x in phase_points(sample_points(5, 38, 2)):
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
    z = sample_points(8, 41, 2, q_ranges=((0.3, 1.0), base.psi_window))
    pts = phase_points(z)
    tag = new_tag()
    for x in pts:
        q = (Dual(x.q[0], 0.7, tag), x.q[1])
        for args in ((x.q, x.p), (q, x.p)):
            assert leaf_values(H.rule(*args)) == leaf_values(ref.rule(*args))
        assert leaf_values(partials_at(H, x.q, x.p)) == leaf_values(
            partials_at(ref, x.q, x.p))
    q, p = columns(z)
    assert leaf_values(H.rule(q, p)) == leaf_values(ref.rule(q, p))
    assert leaf_values(partials_at(H, q, p)) == leaf_values(
        partials_at(ref, q, p))


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
    partials_at(H, (0.7, 0.9), (0.4, -0.3))  # one rule call for every direction
    assert len(calls) == 2


def test_u_operator_examples(base, profile):
    e = ext(base, profile, 1, 1)
    one = PhaseFunction(lambda q, p: 1.0, 2)
    Uone = u_apply(e, one)
    XG = hamiltonian_vector_field(base.L, base.G)
    UG = u_apply(e, base.G)
    for x in phase_points(sample_points(10, 39, 2)):
        assert Uone(x) == pytest.approx(x.p[0], rel=1e-14)
        base_pt = PhasePoint(x.q[1:], x.p[1:])
        expected = x.p[0] * base.G(base_pt) + gamma(profile, x.q[0]) * XG(base_pt)
        assert UG(x) == pytest.approx(expected, rel=1e-13)


def test_u_squared_matches_pd_closed_form(base, profile):
    # the P/D expansion pairs U_{m,n} with the matching G_n
    e = ext(base, profile, 3, 1)
    U2G = u_apply(e, u_apply(e, base.G))
    XG = hamiltonian_vector_field(base.L, base.G)
    for x in phase_points(sample_points(10, 40, 2)):
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
    for x in phase_points(sample_points(10, 40, 2)):
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
    for x in phase_points(sample_points(10, 41, 2)):
        gam = gamma(profile, x.q[0])
        _, D = e._pd_values(1, gam, x.p[0], 0.0)
        assert D == pytest.approx(gam, rel=1e-14)
        bp = PhasePoint(x.q[1:], x.p[1:])
        assert K(x) == pytest.approx(x.p[0] * base.G(bp) + gam * XG(bp), rel=1e-12)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 2), (4, 1), (5, 3), (8, 3), (16, 3)])
def test_k_recursive_equals_closed(base, profile, m, n):
    e = ext(base, profile, m, n)
    kr, kc = e.k_recursive(), e.k_closed()
    for x in phase_points(sample_points(20, 42, 2)):
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
    for x in phase_points(sample_points(50, 43, 2)):
        b = poisson_bracket(H, K, x)
        assert abs(b) <= 1e-9 * bracket_scale(H, K, x)


def test_l_is_quadratic_first_integral(base, profile):
    e = ext(base, profile, 4, 1)
    H, L2 = e.hamiltonian(), lift_last(base.L, 2)
    for x in phase_points(sample_points(20, 44, 2)):
        assert abs(poisson_bracket(H, L2, x)) <= 1e-10 * (1.0 + bracket_scale(H, L2, x))


def test_kbar_reduces_to_k_at_omega_zero(base, profile):
    e = ext(base, profile, 2, 1)
    kb, k = e.kbar_closed(1, 1), e.k_closed()
    for x in phase_points(sample_points(10, 45, 2)):
        assert kb(x) == k(x)
        assert e.kbar_magnitude(x, 1, 1) == e.k_magnitude(x)


@pytest.mark.parametrize("twos,r", [(2, 1), (4, 3), (6, 1)])
@pytest.mark.parametrize("Omega", [0.3, -0.7])
def test_kbar_brackets_and_operator_equality(base, profile, twos, r, Omega):
    e = ext(base, profile, twos, r, Omega=Omega)
    H = e.hamiltonian()
    kb_c = e.kbar_closed(twos // 2, r)
    kb_r = e.kbar_recursive(twos // 2, r)
    for x in phase_points(sample_points(15, 46, 2)):
        assert abs(poisson_bracket(H, kb_c, x)) <= 1e-9 * bracket_scale(H, kb_c, x)
        scale = 1.0 + abs(kb_c(x)) + e.kbar_magnitude(x, twos // 2, r)
        assert abs(kb_c(x) - kb_r(x)) <= 1e-10 * scale


@pytest.mark.parametrize("Omega", [0.3, -0.7])
def test_kbar_8_3_recursive_equals_closed(base, profile, Omega):
    e = ext(base, profile, 8, 3, Omega=Omega)
    kb_c, kb_r = e.kbar_closed(4, 3), e.kbar_recursive(4, 3)
    for x in phase_points(sample_points(20, 53, 2)):
        scale = 1.0 + abs(kb_c(x)) + e.kbar_magnitude(x, 4, 3)
        assert abs(kb_c(x) - kb_r(x)) <= 1e-10 * scale


@pytest.mark.parametrize("m,n", [(5, 3), (16, 3)])
def test_recursive_k_base_rule_calls_grow_linearly(profile, m, n):
    # one G call per point; L's rule runs only in the one trace of its series
    # program, at the first point, and the program does every order of the flow jet
    b = exp_base(0.7, 1.3)
    calls = []

    def counted(name, rule):
        def wrapper(q, p):
            calls.append(name)
            return rule(q, p)

        return wrapper

    b.G.rule, b.L.rule = counted("G", b.G.rule), counted("L", b.L.rule)
    kr = Extension(ExtensionSpec(m, n, -4.0, 0.0, 0.0, profile), b).k_recursive()
    for i, x in enumerate(phase_points(sample_points(3, 54, 2))):
        calls.clear()
        kr(x)
        assert calls == (["L", "G"] if i == 0 else ["G"])


# -- the flow's series program -------------------------------------------------


def _series_bases():
    """Every catalog base family, and L = 0.5 p^2 + V, whose bare power the series writer refuses."""
    # g = cosh(2 psi + 0.3) and sinh(2 psi + 0.3), then the free base and V10
    bases = [BASES["hyperbolic"](0.7, 1.3, 2.0), BASES["trig"](0.2, 1.0, 0.5, 1.0),
             make_base_family(0.5 * math.exp(0.3), 0.5 * math.exp(-0.3), 0.7, 1.1, 2.0, "hyperbolic"),
             make_base_family(0.5 * math.exp(0.3), -0.5 * math.exp(-0.3), 0.7, 1.1, 2.0, "hyperbolic"),
             exp_base(0.0, 0.0), references.v10_base(1.0, 0.5, 0.8)]
    squared = exp_base(0.7, 1.3)
    V = squared.V.rule
    squared.L.rule = lambda q, p: 0.5 * p[0] ** 2 + V(q, p)
    return bases + [squared]


@pytest.mark.parametrize("b, compiled", zip(_series_bases(), [True] * 5 + [False] * 2),
                         ids=["hyperbolic", "trig", "cosh", "sinh", "free", "V10", "p-squared"])
def test_flow_series_equals_the_jet_evaluation_bit_for_bit(b, compiled):
    # V10 and p-squared raise a value to a power inside L, which the series writer
    # has no rule for, so their callable is the evaluation on jets itself.
    # Signed zeros too: p_psi = 0.0 and -0.0 start the flow at a turning point
    lo, hi = b.psi_window
    program = compile_flow_series(b.L, lo, 0.3)
    assert (program.__code__.co_filename == "<flow series>") == compiled
    rng = random.Random(25)
    points = [(rng.uniform(lo, hi), rng.uniform(-2.0, 2.0)) for _ in range(6)]
    points += [(0.5 * (lo + hi), 0.0), (0.5 * (lo + hi), -0.0)]
    for psi, p_psi in points:
        tag = new_tag()
        for leaves in [(psi, p_psi), (Dual(psi, 1.0, tag), Dual(p_psi, -0.5, tag))]:
            for order in range(13):
                got = program([leaves[0]], [leaves[1]], order)
                assert leaf_bits(got) == leaf_bits(flow_jets_by_evaluation(b.L, *leaves, order))


def test_flow_jets_at_duals_take_the_jet_evaluation_and_keep_no_program():
    # partials' leaf rule: only plain floats run (and keep) the series program
    b = exp_base(0.7, 1.3)
    tag = new_tag()
    psi, p_psi = Dual(0.9, 1.0, tag), Dual(0.3, -0.5, tag)
    for order in range(1, 7):
        got = b.flow_jets(psi, p_psi, order)
        assert leaf_bits(got) == leaf_bits(flow_jets_by_evaluation(b.L, psi, p_psi, order))
    assert not b._programs
    b.flow_jets(0.9, 0.3, 4)
    assert [program.__code__.co_filename for _, program in b._programs.values()] == ["<flow series>"]


@pytest.mark.parametrize("b", _series_bases()[:-1], ids=["hyperbolic", "trig", "cosh", "sinh", "free", "V10"])
def test_base_rules_on_plain_arrays_equal_the_float_evaluations(b):
    # every catalog base writes its powers through pow_, so a bare evaluation
    # on plain float64 arrays rounds as the float one does, entry by entry
    psis = sample_scalars(20000, 1, *b.psi_window).tolist()
    ps = sample_scalars(20000, 2, -2.0, 2.0).tolist()
    q, p = (np.array(psis),), (np.array(ps),)
    for f in (b.V, b.L, b.G):
        got = np.broadcast_to(f.rule(q, p), (len(psis),)).tolist()
        want = [float(f.rule((x,), (y,))) for x, y in zip(psis, ps)]
        assert [v.hex() for v in got] == [v.hex() for v in want]


def _guarded_base():
    # V switches formula at psi = 1, through a comparison on the primal
    b = exp_base(0.7, 1.3)
    V = b.V.rule
    b.L.rule = lambda q, p: 0.5 * p[0] * p[0] + (V(q, p) if primal(q[0]) < 1.0 else 2.0 * V(q, p))
    return b


def test_a_flipped_guard_falls_back_to_the_jet_evaluation():
    # a tape that compares has no series form: the guarded L's callable is the
    # evaluation on jets, on both sides of the switch
    b = _guarded_base()
    program = compile_flow_series(b.L, 0.8, 0.3)
    assert program.__code__.co_filename != "<flow series>"
    for psi in (1.3, 0.9):  # the other side, then the traced one
        assert leaf_bits(program([psi], [0.4], 5)) == leaf_bits(flow_jets_by_evaluation(b.L, psi, 0.4, 5))
    for psi in (0.8, 1.3, 0.9):  # traced on the first side, then both
        got = b.flow_jets(psi, 0.4, 8)
        assert leaf_bits(got) == leaf_bits(flow_jets_by_evaluation(b.L, psi, 0.4, 8))
    assert b._programs[compile_flow_series, b.L][1].__code__.co_filename != "<flow series>"


def test_an_operation_jets_lack_leaves_the_jet_evaluation_in_charge(profile):
    # abs has no Taylor rule: no program is built, and the evaluation on jets
    # raises its own error
    b = exp_base(0.7, 1.3)
    V = b.V.rule
    b.L.rule = lambda q, p: 0.5 * p[0] * p[0] + abs(V(q, p))
    assert compile_flow_series(b.L, 0.8, 0.3).__code__.co_filename != "<flow series>"
    with pytest.raises(TypeError) as want:
        flow_jets_by_evaluation(b.L, 0.8, 0.3, 4)
    kr = Extension(ExtensionSpec(5, 3, -4.0, 0.0, 0.0, profile), b).k_recursive()
    with pytest.raises(TypeError) as got:
        kr(PhasePoint((1.1, 0.8), (0.5, 0.3)))
    assert str(got.value) == str(want.value) == "bad operand type for abs(): 'Jet'"
    assert (compile_flow_series, b.L) not in b._programs  # nothing is kept: the evaluation raised


def test_a_patched_base_rule_is_traced_again(profile, monkeypatch):
    b = exp_base(0.7, 1.3)
    kr = Extension(ExtensionSpec(5, 3, -4.0, 0.0, 0.0, profile), b).k_recursive()
    x = PhasePoint((1.1, 0.8), (0.5, 0.3))
    before = kr(x)
    V = b.V.rule
    b.L.rule = lambda q, p: 0.5 * p[0] * p[0] + 3.0 * V(q, p)
    after = kr(x)
    assert b._programs[compile_flow_series, b.L][0] is b.L.rule
    monkeypatch.setattr(BaseSystem, "flow_jets", lambda self, psi, p_psi, order:
                        flow_jets_by_evaluation(self.L, psi, p_psi, order))
    assert after == kr(x) != before  # the jet evaluation of the patched rule


def test_k_builders_refuse_constants_that_are_not_the_bases(base):
    # exp_base(0.7, 1.3) has (c, c0) = (-4, 0); on (-1, 0) the seed relation fails,
    # and {H, K} at (0.8, 0.9; 0.3, -0.4) read 42.7 (closed) and 389 (recursive)
    for c, c0 in [(-1.0, 0.0), (-4.0, 0.5)]:
        prof = GammaProfile.from_c_C(c, 0.0)
        e, ebar = (Extension(ExtensionSpec(2, 1, c, c0, Om, prof), base) for Om in (0.0, 0.3))
        for build in (e.k_closed, e.k_recursive, lambda: e.gn_closed(1),
                      lambda: ebar.kbar_closed(1, 1), lambda: ebar.kbar_recursive(1, 1)):
            with pytest.raises(ValueError, match=r"need the base's \(c, c0\) = \(-4.0, 0.0\)"):
                build()
        e.hamiltonian()  # H itself is built for any pairing


# -- the seed partials' programs ---------------------------------------------


def _window_points(b):
    lo, hi = b.psi_window
    rng = random.Random(26)
    mid = 0.5 * (lo + hi)
    return [(rng.uniform(lo, hi), rng.uniform(-2.0, 2.0)) for _ in range(6)] + [(mid, 0.0), (mid, -0.0)]


@pytest.mark.parametrize("b", _series_bases(),
                         ids=["hyperbolic", "trig", "cosh", "sinh", "free", "V10", "p-squared"])
def test_the_seed_partials_programs_equal_the_seeded_partials_bit_for_bit(b):
    for f in (b.G, b.L):
        for psi, p_psi in _window_points(b):
            got = b.partials(f, (psi,), (p_psi,))
            assert leaf_bits(got) == leaf_bits(references.seeded_partials(f, (psi,), (p_psi,)))
        assert b._programs[compile_partials, f][1].__code__.co_filename == "<compile_partials>"


def test_a_patched_seed_or_l_rule_is_traced_again(profile, monkeypatch):
    b = exp_base(0.7, 1.3)
    k = Extension(ExtensionSpec(5, 3, -4.0, 0.0, 0.0, profile), b).k_closed()
    x = PhasePoint((1.1, 0.8), (0.5, 0.3))
    values = [k(x)]
    for f in (b.G, b.L):
        rule = f.rule
        f.rule = lambda q, p, rule=rule: 3.0 * rule(q, p)
        values.append(k(x))
        assert b._programs[compile_partials, f][0] is f.rule
    monkeypatch.setattr(BaseSystem, "partials", lambda self, f, q, p: partials_at(f, q, p))
    assert values[2] == k(x) and len(set(values)) == 3  # partials_at's value of the patched rules


def test_a_flipped_guard_in_the_seed_partials_falls_back_to_partials_at(monkeypatch):
    b = _guarded_base()
    b.partials(b.L, (0.8,), (0.3,))  # traced below the switch
    seeded = phase.partials_at
    calls = []
    monkeypatch.setattr(phase, "partials_at", lambda f, q, p: calls.append(q + p) or seeded(f, q, p))
    for psi, fell_back in [(1.3, True), (0.9, False), (1.0, True)]:
        calls.clear()
        got = b.partials(b.L, (psi,), (0.4,))
        assert leaf_bits(got) == leaf_bits(references.seeded_partials(b.L, (psi,), (0.4,)))
        assert calls == ([(psi, 0.4)] if fell_back else [])


def test_only_float_points_run_the_seed_partials_programs(profile):
    b = exp_base(0.7, 1.3)
    e = Extension(ExtensionSpec(4, 3, -4.0, 0.0, 0.3, profile), b)
    kb = e.kbar_closed(2, 3)
    x = PhasePoint((1.1, 0.8), (0.5, 0.3))
    kb(x)

    def refuse(*z):
        raise AssertionError("a seed partials program ran on a leaf that is not a float")

    for f in (b.G, b.L):
        b._programs[compile_partials, f] = (f.rule, refuse)
    tag = new_tag()
    kb.rule(tuple(Jet([v, 1.0]) for v in x.q), tuple(Jet([v, -0.5]) for v in x.p))
    tape = Tape()
    for q, p in [columns([x.q + x.p, (1.2, 0.9, -0.4, 0.2)]),
                 (tuple(Dual(v, 1.0, tag) for v in x.q), tuple(Dual(v, 0.5, tag) for v in x.p)),
                 (tape.inputs(x.q), tape.inputs(x.p))]:
        kb.rule(q, p)
        e.kbar_magnitude(SimpleNamespace(q=q, p=p), 2, 3)  # abs has no Jet rule


def test_one_base_compiles_two_seed_partials_programs(profile, monkeypatch):
    made = []

    def counting(source, filename, mode):
        made.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(dm, "compile", counting, raising=False)
    b = exp_base(0.7, 1.3)
    exts = [Extension(ExtensionSpec(m, n, -4.0, 0.0, 0.0, profile), b) for m, n in [(1, 1), (3, 2), (5, 3)]]
    for x in phase_points(sample_points(5, 26, 2)):
        for e in exts:
            e.k_closed()(x)
            e.k_magnitude(x)
            e.gn_closed(2)(PhasePoint(x.q[1:], x.p[1:]))
    assert made == ["<compile_partials>", "<compile_partials>"]


@pytest.mark.parametrize("b", [trig_base(1.0, 0.0, 0.5, 1.0),
                               make_base_family(0.5, -0.5, 0.7, 1.1, 2.0, "hyperbolic")],  # sinh(2 psi)
                         ids=["trig", "sinh"])
def test_a_closed_form_where_g_vanishes_raises_as_partials_at_does(b, monkeypatch):
    # g(0) = 0.0 exactly, and V divides by g^2
    c = b.c
    e = Extension(ExtensionSpec(3, 2, c, 0.0, 0.0, GammaProfile.from_c_C(c, 0.0)), b)
    lo, hi = b.psi_window
    x, zero = PhasePoint((1.1, 0.5 * (lo + hi)), (0.5, 0.3)), PhasePoint((1.1, 0.0), (0.5, 0.3))
    e.k_closed()(x)  # traced away from the zero
    errors = []
    for partials in (BaseSystem.partials, lambda self, f, q, p: partials_at(f, q, p)):
        monkeypatch.setattr(BaseSystem, "partials", partials)
        for evaluate in (e.k_closed(), e.k_magnitude, lambda x: e.gn_closed(2)(PhasePoint(x.q[1:], x.p[1:]))):
            with pytest.raises(ZeroDivisionError) as err:
                evaluate(zero)
            errors.append(str(err.value))
    assert errors == ["float division by zero"] * 6


def test_a_singular_first_point_keeps_no_program():
    # L divides by g^2 and g(0) = 0.0, so L's partials raise at psi = 0: the
    # first evaluation there keeps no program for L, and the first regular
    # point traces both of L's programs, which answer as on a fresh base
    def k_pair():
        b = trig_base(1.0, 0.0, 0.5, 1.0)
        e = Extension(ExtensionSpec(3, 2, b.c, 0.0, 0.0, GammaProfile.from_c_C(b.c, 0.0)), b)
        return b, (e.k_closed(), e.k_recursive())

    b, ks = k_pair()
    for k in ks:
        with pytest.raises(ZeroDivisionError, match="float division by zero"):
            k(PhasePoint((1.1, 0.0), (0.5, 0.3)))
    assert (compile_partials, b.L) not in b._programs
    assert (compile_flow_series, b.L) not in b._programs
    x = PhasePoint((1.1, 1.0), (0.5, 0.3))
    assert [k(x) for k in ks] == [k(x) for k in k_pair()[1]]
    for compiler, f in ((compile_partials, b.G), (compile_partials, b.L), (compile_flow_series, b.L)):
        assert b._programs[compiler, f][1].__code__.co_filename in ("<compile_partials>", "<flow series>")


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
    for x in phase_points(sample_points(20, 47, 2)):
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
    x = phase_points(sample_points(1, 48, 2))[0]
    H2 = PhaseFunction(lambda q, p: H.rule(q, p) * H.rule(q, p), 2)
    H1 = PhaseFunction(lambda q, p: H.rule(q, p) + 1.0, 2)
    assert functional_independence([H, H2, H1], x) == 1
    assert functional_independence([H, L2], x) == 2
    for x in phase_points(sample_points(20, 49, 2)):
        assert functional_independence([H, L2, K], x) == 3


def test_a_cancelling_zero_partial_leaves_the_rank_deficient():
    # f2 = f1^2 + ((p2 * 49) * (1/49) - p2): its p2-partial is zero in exact
    # arithmetic but 49 * (1/49) - 1 = -1.1e-16 in doubles, so (f1, f2, f3) is a
    # dependent triple whose dependence only that round-off hides. Scaling each
    # column to unit norm would lift the round-off to order one and give rank 3.
    fs = [
        PhaseFunction(lambda q, p: q[0], 2),
        PhaseFunction(lambda q, p: q[0] * q[0] + ((p[1] * 49.0) * (1.0 / 49.0) - p[1]), 2),
        PhaseFunction(lambda q, p: q[1], 2),
    ]
    jac = np.array([[gradient(f, x) for f in fs] for x in phase_points(sample_points(50, 7, 2))])
    assert set(jac[:, 1, 3].tolist()) == {49.0 * (1.0 / 49.0) - 1.0}
    assert jac[0, 1, 3] == pytest.approx(-1.1e-16, rel=0.01)
    assert jacobian_rank(jac).tolist() == [2] * 50


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


def test_row_norms_rescale_underflowing_rows():
    # squares of entries below about 1.5e-154 underflow: sqrt(vecdot) reads 0.0
    # for a nonzero row, or loses digits in the subnormal range
    jac = np.array([[3e-170, -4e-170, 0.0, 0.0], [3e-160, 4e-160, 1e-161, 0.0],
                    [0.0, 0.0, 0.0, 0.0], [0.3, -0.4, 0.0, 0.0]])
    with np.errstate(under="ignore"):
        sq = np.vecdot(jac[:2], jac[:2])
    assert sq[0] == 0.0 and 0.0 < sq[1] < np.finfo(float).tiny
    norms = row_norms(jac)
    assert norms[0] == pytest.approx(5e-170, rel=1e-15, abs=0.0)
    assert norms[1] == pytest.approx(np.hypot(5e-160, 1e-161), rel=1e-15, abs=0.0)
    assert norms[2:].tolist() == [0.0, np.sqrt(0.3 * 0.3 + 0.4 * 0.4)]


def _pin_rows(n, rows, rng):
    """Seeded rows of n entries of sizes 1e-330 (which reads 0.0) to 1e308: half spread entry by
    entry, half within a factor 100 of one size (where a plain sum of squares rounds otherwise),
    with one entry in ten zero."""
    size = np.where(np.arange(rows)[:, None] % 2 == 0, rng.uniform(-330, 308, (rows, n)),
                    rng.uniform(-330, 306, (rows, 1)) + rng.uniform(0, 2, (rows, n)))
    with np.errstate(under="ignore"):
        jac = rng.choice([-1.0, 1.0], (rows, n)) * rng.uniform(0.1, 1.0, (rows, n)) * 10.0 ** size
    jac[rng.random((rows, n)) < 0.1] = 0.0
    return jac


@pytest.mark.parametrize("n", [2, 4])
def test_float_norm_equals_row_norms_bit_for_bit(n):
    jac = _pin_rows(n, 100_000, np.random.default_rng(54 + n))
    with np.errstate(over="ignore", under="ignore"):
        sq = np.vecdot(jac, jac)
    nonzero = jac.any(axis=1)
    # rows rescaled where their squares overflow or underflow, and zero rows
    assert np.isinf(sq).sum() > 1000 and ((sq < np.finfo(float).tiny) & nonzero).sum() > 1000
    assert (~nonzero).sum() > 0
    got = np.array([_float_norm(row) for row in jac.tolist()])
    assert np.array_equal(got.view(np.uint64), row_norms(jac).view(np.uint64))


def test_float_norm_pin_sees_a_plain_sum_of_squares():
    # control: s += v*v rounds v*v before the add, unlike vecdot's fused chain
    jac = _pin_rows(4, 100_000, np.random.default_rng(58))
    with np.errstate(over="ignore", under="ignore"):
        sq = np.vecdot(jac, jac)
    normal = np.flatnonzero(np.isfinite(sq) & (sq >= np.finfo(float).tiny))
    plain = []
    for i in normal:
        s = 0.0
        for v in jac[i].tolist():
            s += v * v
        plain.append(math.sqrt(s))
    assert (np.array(plain) != row_norms(jac[normal])).sum() > 1000


def test_memoized_chain_matches_fresh_application(base, profile):
    e = ext(base, profile, 3, 1)
    memo = e.k_recursive()
    fresh = u_apply(e, u_apply(e, u_apply(e, e.gn_recursive(1))))
    for x in phase_points(sample_points(5, 50, 2)):
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
    for x in phase_points(sample_points(10, 52, 2)):
        assert abs(poisson_bracket(H, kb, x)) <= 1e-9 * bracket_scale(H, kb, x)


def test_gradients_match_fd_for_k(base, profile):
    e = ext(base, profile, 2, 1)
    K = e.k_closed()
    from extham.phase import gradient

    for x in phase_points(sample_points(5, 51, 2)):
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
    z = sample_points(4, 55 + m + n, 2)
    pts = phase_points(z)
    for x in pts:
        assert f.rule(x.q, x.p) == ref(x.q, x.p)
    x = pts[0]
    assert leaf_values(partials_at(f, x.q, x.p)) == leaf_values(
        partials_at(PhaseFunction(ref, 2), x.q, x.p))
    q, p = columns(z)
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


def _entries_differ(on_columns, on_point, z):
    values = on_columns(*columns(z))
    assert type(values) is np.ndarray
    return [v.hex() for v in values.tolist()] != [on_point(x).hex() for x in phase_points(z)]


@pytest.mark.parametrize("case", range(len(_closed_form_cases())),
                         ids=[f"{i}-{c[0]}" for i, c in enumerate(_closed_form_cases())])
def test_closed_forms_on_array_leaves_equal_the_float_evaluations(case):
    # as drift_report evaluates them: the closed forms raise G, X_L G, cL + c0,
    # (m/n) gamma, p_u and 2 Omega/gamma^2 to powers through pow_, which runs
    # math.pow entry by entry on float64 arrays, where numpy's own power would
    # round some entries differently; the value and magnitude, entry by entry
    label, e, s, windows = _closed_form_cases()[case]
    z = sample_points(200, 1, 2, q_ranges=windows)
    if s == 0:
        value, magnitude = e.k_closed(), e.k_magnitude
    else:
        value, magnitude = e.kbar_closed(s, e.spec.n), (
            lambda x: e.kbar_magnitude(x, s, e.spec.n))
    assert not _entries_differ(value.rule, value, z), f"{label} value"
    assert not _entries_differ(lambda q, p: magnitude(SimpleNamespace(q=q, p=p)),
                               magnitude, z), f"{label} magnitude"


@pytest.mark.parametrize("k", ["1", "1/2", "2", "5/3", "3", "4"])
def test_null_chart_k_on_array_leaves_equals_the_float_evaluations(k):
    # K through the null-chart pullback, as drift_report evaluates it on a
    # Minkowski orbit
    model = make_minkowski_hamiltonian(Fraction(k), 1.0, 2.0)
    K = model.known_integrals[-1][1]
    for seed in (1, 2, 3):
        z = sample_points(200, seed, 2, q_ranges=model.q_windows)
        assert not _entries_differ(K.rule, K, z), f"seed {seed}"


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
        z = sample_points(4, 61, 2, q_ranges=windows)
        pts = phase_points(z)
        for x in pts:
            assert value(x) == ref(x), label
            assert magnitude(x) == references.closed_form(e, x.q, x.p, s, True), label
        x = pts[0]
        assert leaf_values(partials_at(value, x.q, x.p)) == leaf_values(
            partials_at(ref, x.q, x.p)), label
        q, p = columns(z)
        assert leaf_values(partials_at(value, q, p)) == leaf_values(
            partials_at(ref, q, p)), label
        assert leaf_values(magnitude(SimpleNamespace(q=q, p=p))) == leaf_values(
            references.closed_form(e, q, p, s, True)), label
