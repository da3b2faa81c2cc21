import json
import math
from fractions import Fraction

import numpy as np
import pytest

from extham import duals as dm
from extham.catalog import (
    MODELS,
    PSI_WINDOW,
    catalog_listing,
    default_models,
    exp_base,
    make_base_family,
    make_curved_hamiltonian,
    make_flat_ttw_hamiltonian,
    make_minkowski_hamiltonian,
    make_remark_pair,
    minkowski_indices,
    null_coords_generic,
    polar_coords_generic,
    trig_base,
)
from extham.ccm import ccm_transform
from extham.dynamics import Trajectory, drift_report
from extham.extension import Extension, ExtensionSpec, bracket_scale
from extham.phase import PhaseFunction, PhasePoint, hamiltonian_vector_field, partials_at, poisson_bracket
from extham.sampling import sample_points
from extham.tagged_trig import GammaProfile

from references import (
    leaf_values,
    nth_derivative,
    phase_points,
    seed_equation_terms,
    ttw_hamiltonian,
    v10_base,
)


def wedge_points(num, seed):
    return phase_points(sample_points(num, seed, 2))


def polar_point(k, x):
    """The null-chart point x on the pseudo-polar chart."""
    return PhasePoint(*polar_coords_generic(k, x.q, x.p))


def test_minkowski_hamiltonian_values():
    mdl = make_minkowski_hamiltonian(Fraction(1), 1.0, 2.0, 0.0)
    x = PhasePoint((1.3, 0.8), (0.4, -0.7))
    q1, q2 = 1.3, 0.8
    expected = 0.4 * -0.7 - q2**3 * q1**-5 - q2 * q1**-3
    assert mdl.H(x) == pytest.approx(expected, rel=1e-14)
    # all couplings off: free motion p1 p2
    free = make_minkowski_hamiltonian(Fraction(0), 0.0, 0.0, 0.0)
    assert free.H(x) == pytest.approx(0.4 * -0.7, rel=1e-15)
    # the Omega term is 2 Omega q1 q2
    momega = make_minkowski_hamiltonian(Fraction(1), 1.0, 2.0, 0.5)
    assert momega.H(x) - mdl.H(x) == pytest.approx(2 * 0.5 * q1 * q2, rel=1e-13)


def test_minkowski_wedge_domain():
    mdl = make_minkowski_hamiltonian(Fraction(1, 2), 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        mdl.H(PhasePoint((-0.5, 1.0), (0.0, 0.0)))


def test_integral_indices_from_k():
    assert minkowski_indices(Fraction(1)) == (4, 1)
    assert minkowski_indices(Fraction(1, 2)) == (3, 1)
    assert minkowski_indices(Fraction(3)) == (8, 1)
    assert minkowski_indices(Fraction(1, 4)) == (5, 2)
    with pytest.raises(ValueError):
        minkowski_indices(0.37)
    with pytest.raises(ValueError):
        minkowski_indices(Fraction(-2))


def test_pseudo_polar_center_point():
    s = 1.0 / math.sqrt(2.0)
    x = PhasePoint((s, s), (0.3, 0.9))
    y = polar_point(1, x)
    assert y.q[0] == pytest.approx(1.0, rel=1e-15)
    assert y.q[1] == pytest.approx(0.0, abs=1e-15)


def test_pseudo_polar_round_trip():
    for k in (Fraction(1), Fraction(1, 2), Fraction(3)):
        kf = float(k)
        for x in wedge_points(50, 61):
            q, p = null_coords_generic(kf, *polar_coords_generic(kf, x.q, x.p))
            for a, b in zip(x.q + x.p, q + p):
                assert abs(a - b) <= 1e-13 * (1.0 + abs(a))


def test_chart_equality_null_vs_polar():
    for k in (Fraction(1), Fraction(1, 2), Fraction(3)):
        mdl = make_minkowski_hamiltonian(k, 1.0, 2.0, 0.4)
        H_polar = mdl.extension.hamiltonian()
        for x in wedge_points(50, 62):
            a = mdl.H(x)
            b = H_polar(polar_point(float(k), x))
            scale = 1.0 + abs(a) + abs(x.p[0] * x.p[1])
            assert abs(a - b) <= 1e-12 * scale


def test_transform_is_canonical():
    # pulled-back chart functions satisfy canonical bracket relations
    k = 1.0
    charts = []
    for idx in range(4):
        def rule(q, p, idx=idx):
            from extham.catalog import polar_coords_generic

            qq, pp = polar_coords_generic(k, q, p)
            return (qq + pp)[idx]

        charts.append(PhaseFunction(rule, 2))
    u_c, psi_c, pu_c, ppsi_c = charts
    for x in wedge_points(50, 63):
        assert abs(poisson_bracket(u_c, pu_c, x) - 1.0) <= 1e-11
        assert abs(poisson_bracket(psi_c, ppsi_c, x) - 1.0) <= 1e-11
        assert abs(poisson_bracket(u_c, ppsi_c, x)) <= 1e-11
        assert abs(poisson_bracket(psi_c, pu_c, x)) <= 1e-11
        assert abs(poisson_bracket(u_c, psi_c, x)) <= 1e-11
        assert abs(poisson_bracket(pu_c, ppsi_c, x)) <= 1e-11


def test_exp_base_is_the_wedge_potential():
    base = exp_base(0.5, 0.5)
    x = PhasePoint((0.9,), (0.0,))
    assert base.V(x) == pytest.approx(
        0.5 * math.exp(-3.6) + 0.5 * math.exp(-1.8), rel=1e-14
    )
    assert base.params["C1"] == 1.0 and base.params["C2"] == 0.0


def test_v1_subfamily_is_c4_zero():
    base = make_base_family(1.0, 0.6, 1.3, 0.0, 2.0, "hyperbolic")
    for psi in (0.4, 1.0, 1.7):
        g = base.g_scalar(psi)
        assert base.V(PhasePoint((psi,), (0.0,))) == pytest.approx(1.3 / g**2, rel=1e-13)


def test_every_family_passes_seed_residual():
    rng = np.random.Generator(np.random.Philox(key=202))
    bases = [
        exp_base(0.5, 0.5),
        make_base_family(1.0, 0.6, 1.3, 0.0, 2.0, "hyperbolic"),
        # g = A cosh(2 psi + psi0) and A sinh(2 psi + psi0) at (A, psi0) = (1.2, 0.4) and (0.9, 0.5)
        make_base_family(0.5 * 1.2 * math.exp(0.4), 0.5 * 1.2 * math.exp(-0.4), 0.8 * 1.2 * 1.2,
                         -0.5 * 1.2, 2.0, "hyperbolic"),
        make_base_family(0.5 * 0.9 * math.exp(0.5), -0.5 * 0.9 * math.exp(-0.5), 1.1 * 0.9 * 0.9,
                         0.7 * 0.9, 2.0, "hyperbolic"),
        trig_base(1.0, 0.2, 1.0, 0.5, 1.0),
        v10_base(1.0, 0.4, 1.2, 2.0),
    ]
    # five random (V2) parameter draws with C1, C2 > 0 (pole-free gauge)
    for _ in range(5):
        C1, C2 = rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.5)
        C3, C4 = rng.uniform(0.4, 2.0), rng.uniform(-2.0, 2.0)
        eta = rng.uniform(0.8, 2.5)
        bases.append(make_base_family(C1, C2, C3, C4, eta, "hyperbolic"))
    for base in bases:
        for x in phase_points(sample_points(50, 203, 1, q_ranges=(base.psi_window,))):
            a, b = seed_equation_terms(base, base.c, base.c0, x)
            assert abs(a + b) <= 1e-10 * (1.0 + abs(a) + abs(b)), base.family


def test_base_family_validation():
    with pytest.raises(ValueError):
        make_base_family(0.0, 0.0, 1.0, 1.0, 2.0, "hyperbolic")
    with pytest.raises(ValueError):
        make_base_family(1.0, 0.0, 0.0, 0.0, 2.0, "hyperbolic")
    with pytest.raises(ValueError):
        make_base_family(1.0, 0.0, 1.0, 0.0, 0.0, "hyperbolic")
    with pytest.raises(ValueError):
        make_base_family(1.0, 0.0, 1.0, 0.0, 2.0, "elliptic")
    with pytest.raises(ValueError):
        # gauge vanishes inside the window
        make_base_family(1.0, -1.0, 1.0, 0.0, 2.0, "hyperbolic", psi_window=(-1.0, 1.0))


_ONE_DOF = PhaseFunction(lambda q, p: 0.5 * p[0] * p[0], 1)
_TWO_DOF = PhaseFunction(lambda q, p: q[0] * p[1], 2)
_WEDGE = make_minkowski_hamiltonian(Fraction(1), 1.0, 2.0, 0.0)


@pytest.mark.parametrize("call,error,message", [
    (lambda: _WEDGE.extension.gn_recursive(0), ValueError, "n must be positive"),
    (lambda: _WEDGE.extension.gn_closed(0), ValueError, "n must be positive"),
    (lambda: _WEDGE.integral("K(9,9)"), KeyError, r"K\(9,9\)"),
    (lambda: _ONE_DOF(PhasePoint((1.0, 2.0), (0.0, 0.0))), ValueError,
     "function of 1 dof evaluated at a 2-dof point"),
    (lambda: drift_report(Trajectory(np.zeros(1), np.zeros((1, 2)), 0.1), {"H": _TWO_DOF}),
     ValueError, "function of 2 dof evaluated at a 1-dof point"),
    (lambda: hamiltonian_vector_field(_ONE_DOF, _TWO_DOF), ValueError,
     "X_L requires L and f on the same phase space"),
    (lambda: ccm_transform(_TWO_DOF, None, _ONE_DOF, 0.4), ValueError,
     "coupling function and Hamiltonian must share a phase space"),
], ids=["gn-recursive", "gn-closed", "unknown-integral",
        "phase-function-dof", "drift-report-dof", "vector-field-dof", "ccm-dof"])
def test_a_refusal_names_its_cause(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("build", [
    lambda w: make_base_family(1.0, 0.6, 1.3, 0.0, 2.0, "hyperbolic", psi_window=w),
    # g = 0.9 sinh(2 psi + 0.5), and g = sin(psi + 0.2) as trig_base(1.0, 0.2, 1.0, 0.5) maps it
    lambda w: make_base_family(0.45 * math.exp(0.5), -0.45 * math.exp(-0.5), 1.1 * 0.9 * 0.9, 0.7 * 0.9, 2.0,
                               "hyperbolic", psi_window=w),
    lambda w: make_base_family(math.sin(0.2), math.cos(0.2), 1.0, 0.5, 1.0, "trig", psi_window=w),
])
@pytest.mark.parametrize("window", [(2.0, 0.3), (0.5, 0.5)])
def test_an_explicit_empty_window_is_refused(build, window):
    with pytest.raises(ValueError, match=r"empty psi window"):
        build(window)


@pytest.mark.parametrize("build", [
    # each zero falls between the points of an evenly spaced 201-point scan
    # g = 0.9 sinh(2 psi - 1): psi = 0.5
    lambda: make_base_family(0.45 * math.exp(-1.0), -0.45 * math.exp(1.0), 1.1 * 0.9 * 0.9, 0.7 * 0.9, 2.0,
                             "hyperbolic"),
    lambda: make_base_family(1.0, -4.0, 0.8, 0.0, 2.0, "hyperbolic"),  # e^(4 psi) = 4: psi = ln(4)/4
    lambda: make_base_family(-0.25, 1.0, 0.8, 0.0, 2.0, "hyperbolic"),  # e^(-4 psi) = 1/4: psi = ln(4)/4
    lambda: make_base_family(0.0, 1.0, 1.0, 0.5, 1.0, "trig", psi_window=(3.0, 3.2)),  # pi
    lambda: make_base_family(1.0, 1.0, 1.0, 0.5, 3.0, "trig", psi_window=(4.9, 5.1)),  # 19 pi / 12
])
def test_a_window_holding_a_zero_of_the_gauge_is_refused(build):
    with pytest.raises(ValueError, match=r"gauge function vanishes inside psi window"):
        build()


@pytest.mark.parametrize("build", [
    lambda: make_base_family(1e-7, 1e-7, 1.0, 0.0, 2.0, "hyperbolic"),  # small, never zero
    lambda: make_base_family(1.0, -1.0, 1.0, 0.0, 2.0, "hyperbolic", psi_window=(1e-9, 1.0)),
    lambda: make_base_family(0.0, 1.0, 1.0, 0.5, 1.0, "trig", psi_window=(0.3, 3.1)),
    lambda: make_base_family(1.0, 1.0, 1.0, 0.5, 3.0, "trig", psi_window=(5.0, 6.0)),
])
def test_a_window_free_of_zeros_is_accepted(build):
    build()


def _explicit_base(C1, C2, C3, C4, eta, branch):
    """V = (C3 + C4 g'/eta_hat) / g^2, L = p^2/2 + V and G = g p, each transcendental
    called on its own."""
    e = abs(eta)
    if branch == "hyperbolic":
        g = lambda s: C1 * dm.exp(e * s) + C2 * dm.exp(-e * s)
        slope = lambda s: C1 * dm.exp(e * s) - C2 * dm.exp(-e * s)
    else:
        g = lambda s: C1 * dm.cos(e * s) + C2 * dm.sin(e * s)
        slope = lambda s: -C1 * dm.sin(e * s) + C2 * dm.cos(e * s)

    def V(q, p):
        gv = g(q[0])
        return (C3 + C4 * slope(q[0])) / (gv * gv)

    return V, lambda q, p: 0.5 * p[0] * p[0] + V(q, p), lambda q, p: g(q[0]) * p[0]


# the base make_base_family does not build, with its (V, L, G) written out
_OTHER_BASES = {
    "free": lambda: (exp_base(0.0, 0.0), (lambda q, p: 0.0, lambda q, p: 0.5 * p[0] * p[0],
                                          lambda q, p: dm.exp(2.0 * q[0]) * p[0])),
}


@pytest.mark.parametrize("params, window", [
    ((0.8, 0.6, 0.7, 1.3, -1.5, "hyperbolic"), None),
    ((1.2, 0.0, 0.7, 1.3, 2.0, "hyperbolic"), None),
    ((0.3, 1.1, 0.9, -0.4, 1.0, "trig"), None),
    ((1.1, 0.0, 0.9, -0.4, 1.3, "trig"), (0.1, 1.0)),
    ("free", None),
])
def test_base_family_L_equals_separate_transcendentals(params, window):
    # make_base_family's g and g'/eta_hat share one pair of exp or cos/sin calls, and
    # every base's L adds V to p^2/2: every value and partial of V, L and G must equal
    # the form written out with each transcendental called on its own
    if isinstance(params, str):
        base, reference = _OTHER_BASES[params]()
    else:
        base = make_base_family(*params, psi_window=window or PSI_WINDOW)
        reference = _explicit_base(*params)
    lo, hi = window or PSI_WINDOW
    p = (0.4,)
    psis = np.linspace(lo, hi, 7)
    for built, rule in zip((base.V, base.L, base.G), reference):
        ref = PhaseFunction(rule, 1)

        def same(f):
            assert leaf_values(f(built)) == leaf_values(f(ref))

        for psi in psis.tolist():
            same(lambda F: F.rule((psi,), p))
            same(lambda F: partials_at(F, (psi,), p))
            same(lambda F: nth_derivative(lambda s: F.rule((s,), p), psi, 3))
            same(lambda F: F.rule((dm.Jet([psi, 1.0, 0.0, 0.0, 0.0]),), p))
            same(lambda F: F.rule((dm.Jet([dm.Dual(psi, 1.0, 7), 1.0, 0.0]),), p))
        col = np.array(psis)
        same(lambda F: F.rule((col,), p))
        same(lambda F: partials_at(F, (col,), p))
        same(lambda F: nth_derivative(lambda s: F.rule((s,), p), col, 2))


@pytest.mark.parametrize("kappa", [1, -1])
@pytest.mark.parametrize("Omega", [0.0, 0.4])
def test_curved_models_brackets(kappa, Omega):
    base = trig_base(1.0, 0.2, 1.0, 0.5, 1.0)
    mdl = make_curved_hamiltonian(base, Fraction(1), kappa, Omega)
    pts = phase_points(sample_points(20, 64, 2, q_ranges=mdl.q_windows))
    for name, K in mdl.known_integrals:
        for x in pts:
            b = abs(poisson_bracket(mdl.H, K, x))
            assert b <= 1e-9 * max(bracket_scale(mdl.H, K, x), 1e-6), (name, kappa, Omega)


def test_curved_chart_labels():
    tb = trig_base(1.0, 0.2, 1.0, 0.5, 1.0)
    hb = exp_base(0.7, 1.3)
    assert make_curved_hamiltonian(tb, Fraction(1), 1).chart == "sphere S2"
    assert make_curved_hamiltonian(tb, Fraction(1), -1).chart == "pseudosphere H2"
    assert make_curved_hamiltonian(hb, Fraction(1), 1).chart == "de Sitter dS2"
    assert make_curved_hamiltonian(hb, Fraction(1), -1).chart == "anti-de Sitter AdS2"
    with pytest.raises(ValueError):
        make_curved_hamiltonian(tb, Fraction(1), 2)
    with pytest.raises(ValueError):
        make_curved_hamiltonian(tb, 1.0, 1)


def test_curved_model_ids_are_the_cli_model_names():
    # without model_id the id comes from (sign of c, kappa), as verify --model names it
    tb = trig_base(1.0, 0.2, 1.0, 0.5, 1.0)
    hb = exp_base(0.7, 1.3)
    ids = [make_curved_hamiltonian(base, Fraction(1), kappa).id
           for base in (tb, hb) for kappa in (1, -1)]
    assert ids == ["sphere", "pseudosphere", "de-sitter", "anti-de-sitter"]
    assert make_curved_hamiltonian(hb, Fraction(1), 1, model_id="named").id == "named"


def test_flat_ttw_warp_coefficient():
    # warp +m^2/(|eta|^2 n^2 u^2) agrees with -(m/n)^2 gamma' at gamma = 1/(cu)
    base = trig_base(1.0, 0.2, 1.0, 0.5, 2.0)
    mdl = make_flat_ttw_hamiltonian(base, 3, 2, 0.0)
    H = mdl.H
    for x in phase_points(sample_points(10, 65, 2, q_ranges=mdl.q_windows)):
        u = x.q[0]
        L = base.L(PhasePoint(x.q[1:], x.p[1:]))
        expected = 0.5 * x.p[0] ** 2 + (9.0 / (4.0 * 4.0 * u * u)) * L
        assert H(x) == pytest.approx(expected, rel=1e-12)
    # Omega term is eta^4 u^2 Omega
    mdl2 = make_flat_ttw_hamiltonian(base, 3, 2, 0.7)
    x = PhasePoint((0.9, 0.5), (0.1, 0.2))
    assert mdl2.H(x) - H(x) == pytest.approx(16.0 * 0.81 * 0.7, rel=1e-11)
    with pytest.raises(ValueError):
        make_flat_ttw_hamiltonian(exp_base(0.7, 1.3), 2, 1)


def test_flat_ttw_bracket_with_omega():
    base = trig_base(1.0, 0.2, 1.0, 0.5, 1.0)
    mdl = make_flat_ttw_hamiltonian(base, 2, 1, 0.4)
    name, K = mdl.known_integrals[-1]
    assert name == "Kbar(2,1)"
    for x in phase_points(sample_points(20, 66, 2, q_ranges=mdl.q_windows)):
        assert abs(poisson_bracket(mdl.H, K, x)) <= 1e-9 * bracket_scale(mdl.H, K, x)


@pytest.mark.parametrize("m, n, omega, eta", [
    (2, 1, 0.0, 2.0), (2, 1, 0.3, 2.0), (3, 2, 0.0, 2.0), (3, 2, 0.3, 2.0),
    (5, 3, 0.0, 2.0), (5, 3, 0.3, 2.0), (3, 2, 0.3, 1.5),
])
def test_ttw_flat_is_the_ttw_hamiltonian(m, n, omega, eta):
    # r = u, theta = |eta| psi/k, p_theta = k p_psi/|eta| with k = m/n maps ttw-flat
    # onto TTW with kappa = k/2; the control kappa = k must miss it
    psi0, alpha, beta = 0.2, 1.0, 2.0  # verify's defaults
    model = MODELS["ttw-flat"](psi0=psi0, alpha=alpha, beta=beta, eta=eta, m=m, n=n, omega=omega)
    k = m / n
    a = k * k * (alpha + beta) / (2.0 * eta * eta)
    b = k * k * (alpha - beta) / (2.0 * eta * eta)
    points = phase_points(sample_points(50, 7, 2, q_ranges=model.q_windows))

    def mismatch(kappa):
        worst = 0.0
        for x in points:
            (u, psi), (pu, ppsi) = x.q, x.p
            H = model.H(x)
            ttw = ttw_hamiltonian(a, b, kappa, psi0, eta**4 * omega,
                                  u, abs(eta) * psi / k, pu, k * ppsi / abs(eta))
            worst = max(worst, abs(H - ttw) / (1.0 + abs(H)))
        return worst

    assert mismatch(m / (2 * n)) <= 1e-13
    assert mismatch(m / n) > 1e-3


def test_remark_pair_brackets_and_flags():
    h1, h2 = make_remark_pair(2.0, 3.0)
    assert h1.extendable is False and h2.extendable is False
    I1, I2 = h1.integral("I1"), h2.integral("I2")
    for x in wedge_points(50, 67):
        b1 = abs(poisson_bracket(h1.H, I1, x))
        assert b1 <= 1e-10 * bracket_scale(h1.H, I1, x)
        b2 = abs(poisson_bracket(h2.H, I2, x))
        assert b2 <= 1e-10 * bracket_scale(h2.H, I2, x)
    with pytest.raises(ValueError):
        h1.H(PhasePoint((-1.0, 1.0), (0.0, 0.0)))


def test_irrational_k_refuses_integrals_but_conserves_l():
    for kf in (0.37, math.sqrt(2.0)):
        mdl = make_minkowski_hamiltonian(kf, 1.0, 2.0, 0.0)
        assert [name for name, _ in mdl.known_integrals] == ["L"]
        assert mdl.extension is None
        L = mdl.integral("L")
        for x in wedge_points(20, 68):
            assert abs(poisson_bracket(mdl.H, L, x)) <= 1e-10 * bracket_scale(mdl.H, L, x)


def test_separability_integral_in_null_chart():
    mdl = make_minkowski_hamiltonian(Fraction(1), 1.0, 2.0, 0.0)
    for name, K in mdl.known_integrals:
        for x in wedge_points(25, 69):
            assert abs(poisson_bracket(mdl.H, K, x)) <= 1e-9 * bracket_scale(mdl.H, K, x)


def test_catalog_listing_is_json_serializable():
    listing = catalog_listing()
    blob = json.dumps(listing)
    ids = {entry["id"] for entry in listing}
    assert {"minkowski", "sphere", "pseudosphere", "de-sitter", "anti-de-sitter",
            "ttw-flat", "remark-h1", "remark-h2"} <= ids
    for entry in listing:
        assert set(entry) == {"id", "chart", "params", "known_integrals", "extendable"}
    assert json.loads(blob) == listing


_TB = trig_base(1.0, 0.2, 1.0, 0.5, 1.0)


@pytest.mark.parametrize("build,label", [
    (lambda: make_minkowski_hamiltonian(Fraction(1), 1.0, 2.0, 0.0), "K(4,1)"),
    (lambda: make_minkowski_hamiltonian(Fraction(1), 1.0, 2.0, 0.3), "Kbar(4,1)"),
    (lambda: make_minkowski_hamiltonian(Fraction(1, 2), 1.0, 2.0, 0.3), "Kbar(6,2)"),
    (lambda: make_curved_hamiltonian(_TB, Fraction(1), 1, 0.0), "K(2,1)"),
    (lambda: make_curved_hamiltonian(_TB, Fraction(1), 1, 0.2), "Kbar(2,1)"),
    (lambda: make_curved_hamiltonian(_TB, Fraction(1, 2), 1, 0.2), "Kbar(6,4)"),
    (lambda: make_flat_ttw_hamiltonian(_TB, 2, 1, 0.0), "K(2,1)"),
    (lambda: make_flat_ttw_hamiltonian(_TB, 2, 1, 0.4), "Kbar(2,1)"),
    (lambda: make_flat_ttw_hamiltonian(_TB, 3, 2, 0.4), "Kbar(6,4)"),
], ids=[f"{model}-{case}" for model in ("minkowski", "curved", "flat-ttw")
        for case in ("omega0", "even-m", "odd-m")])
def test_first_integral_is_the_catalog_integral(build, label):
    mdl = build()
    ext = mdl.extension
    got_label, f = ext.first_integral()
    assert got_label == label == mdl.known_integrals[-1][0]
    spec, (m, n) = ext.spec, (ext.spec.m, ext.spec.n)
    if label.startswith("K("):
        direct = ext.k_closed()
    elif m % 2 == 0:
        direct = ext.kbar_closed(m // 2, n)
    else:
        doubled = ExtensionSpec(2 * m, 2 * n, spec.c, spec.c0, spec.Omega, spec.gamma)
        direct = Extension(doubled, ext.base).kbar_closed(m, 2 * n)
    catalog_K = mdl.integral(label)
    if mdl.id == "minkowski":
        k = float(mdl.params["k"])
        for x in wedge_points(10, 67):
            y = polar_point(k, x)
            assert f(y) == direct(y)
            assert catalog_K(x) == direct(y)
    else:
        for x in phase_points(sample_points(10, 67, 2, q_ranges=mdl.q_windows)):
            assert f(x) == direct(x) == catalog_K(x)


def test_batch_off_the_wedge_raises_the_per_point_message():
    mdl = make_minkowski_hamiltonian(Fraction(1), 1.0, 2.0, 0.3)
    h1, _ = make_remark_pair()
    cases = [(f, (0.7, -0.2)) for f in [mdl.H] + [f for _, f in mdl.known_integrals]]
    cases.append((h1.H, (-0.7, 0.2)))
    p = (np.array([0.1, 0.2, 0.3]), np.array([0.2, 0.1, -0.4]))
    for f, bad in cases:
        q = tuple(np.array([0.5, b, 0.9]) for b in bad)  # only the middle point is off
        with pytest.raises(ValueError) as batched:
            f.rule(q, p)
        with pytest.raises(ValueError) as single:
            f.rule(bad, (0.2, 0.1))
        assert str(batched.value) == str(single.value)


def test_float_evaluations_never_call_numpy(monkeypatch):
    # guards on float points must stay plain comparisons: numpy calls in the
    # scalar path cost the integrator about 30%
    fs = []
    for mdl in default_models():
        fs += [(mdl.H, mdl.q_windows), (mdl.known_integrals[-1][1], mdl.q_windows)]
    ext = Extension(ExtensionSpec(5, 3, -4.0, 0.0, 0.0, GammaProfile.from_c_C(-4.0, 0.0)),
                    exp_base(0.7, 1.3))
    fs.append((ext.k_recursive(), ((0.3, 2.0), (0.3, 2.0))))

    def refuse(*args, **kwargs):
        raise AssertionError("numpy called on a float evaluation")

    monkeypatch.setattr(np, "any", refuse)
    monkeypatch.setattr(np, "asarray", refuse)
    for f, windows in fs:
        q = tuple(0.5 * (lo + hi) for lo, hi in windows)
        p = (0.4, -0.3)
        assert isinstance(f.rule(q, p), float)
        partials_at(f, q, p)
