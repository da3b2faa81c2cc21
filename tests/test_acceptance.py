"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion with its runtime against the budget.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

from extham.catalog import (
    exp_base,
    from_pseudo_polar,
    make_base_family,
    make_curved_hamiltonian,
    make_flat_ttw_hamiltonian,
    make_minkowski_hamiltonian,
    make_remark_pair,
    to_pseudo_polar,
    trig_base,
)
from extham.ccm import ccm_transform, rescale_radial
from extham.cli import main as cli_main
from extham.dynamics import COMPLETED, drift_report, integrate
from extham.extension import Extension, ExtensionSpec, bracket_scale
from extham.ladder import ladder_eigen_pattern, ladder_from_base, ladder_residuals
from extham.phase import PhaseFunction, PhasePoint, gradient, lift_last, poisson_bracket
from extham.sampling import sample_points, sample_scalars
from extham.tagged_trig import GammaPoleError, GammaProfile, gamma

from references import ode_residual, phase_points, seed_equation_terms

SECTION3_PROFILE = GammaProfile.from_c_C(-4.0, 0.0)


def _finish(num, name, budget, t0, ok, detail=""):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:>2} {name}: {status} ({elapsed:.2f}s, budget {budget}s)"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, f"criterion {num}: {detail or name}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def section3_base():
    return exp_base(0.7, 1.3)


def test_criterion_01_gamma_ode_residual():
    t0 = time.perf_counter()
    profiles = []
    for c in (-4.0, -1.0, 0.0, 1.0):
        for kappa in (-1.0, 0.0, 1.0):
            for shift in (0.0, math.pi / 2):
                if c == 0.0:
                    profiles.append(GammaProfile(0.0, 1.0, kappa, shift))
                else:
                    profiles.append(GammaProfile.from_c_kappa(c, kappa, shift))
    assert len(profiles) == 24
    worst = 0.0
    checked = 0
    for prof in profiles:
        for u in sample_scalars(50, 1001, 0.05, 2.2).tolist():
            try:
                g = gamma(prof, u)
            except GammaPoleError:
                continue
            worst = max(worst, abs(ode_residual(prof, u)) / (1.0 + g * g))
            checked += 1
    ok = worst <= 1e-12 and checked > 1000
    _finish(1, "gamma ODE residual on the 24-profile grid", 1.0, t0, ok,
            f"max residual/scale {worst:.2e} over {checked} evaluations")


def test_criterion_02_seed_certification():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=1002))
    bases = [("section3", section3_base())]
    for i in range(5):
        C1, C2 = rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.5)
        C3, C4 = rng.uniform(0.4, 2.0), rng.uniform(-2.0, 2.0)
        eta = rng.uniform(0.8, 2.5)
        bases.append((f"V2-draw-{i}", make_base_family(C1, C2, C3, C4, eta, "hyperbolic")))
    bases.append(("V1", make_base_family(1.0, 0.6, 1.3, 0.0, 2.0, "hyperbolic")))
    bases.append(("trig-TTW", trig_base(1.0, 0.2, 1.0, 0.5, 1.0)))
    worst = 0.0
    for name, base in bases:
        assert (base.c > 0) == (name == "trig-TTW")
        for x in phase_points(sample_points(50, 1003, 1, q_ranges=(base.psi_window,))):
            a, b = seed_equation_terms(base, base.c, base.c0, x)
            worst = max(worst, abs(a + b) / (1.0 + abs(a) + abs(b)))
    ok = worst <= 1e-10
    _finish(2, "seed-equation certification across families", 2.0, t0, ok,
            f"max residual/scale {worst:.2e}")


def test_criterion_03_superintegrability_sweep():
    t0 = time.perf_counter()
    base = section3_base()
    worst = 0.0
    for m, n in [(1, 1), (2, 1), (3, 2), (4, 1), (5, 3)]:
        ext = Extension(ExtensionSpec(m, n, -4.0, 0.0, 0.0, SECTION3_PROFILE), base)
        H, K = ext.hamiltonian(), ext.k_closed()
        for x in phase_points(sample_points(50, 1004, 2)):
            rel = abs(poisson_bracket(H, K, x)) / bracket_scale(H, K, x)
            worst = max(worst, rel)
    ok = worst <= 1e-9
    _finish(3, "bracket sweep {H, K_mn} over five index pairs", 10.0, t0, ok,
            f"max |bracket|/scale {worst:.2e}")


def test_criterion_04_omega_sweep():
    t0 = time.perf_counter()
    base = section3_base()
    worst = 0.0
    for Omega in (0.3, -0.7):
        for twos, r in [(2, 1), (4, 3), (6, 1)]:
            ext = Extension(ExtensionSpec(twos, r, -4.0, 0.0, Omega, SECTION3_PROFILE), base)
            H, Kb = ext.hamiltonian(), ext.kbar_closed(twos // 2, r)
            for x in phase_points(sample_points(50, 1005, 2)):
                worst = max(worst, abs(poisson_bracket(H, Kb, x)) / bracket_scale(H, Kb, x))
        # odd first index m=3, n=2: the integral doubles to Kbar_{6,4}
        H = Extension(ExtensionSpec(3, 2, -4.0, 0.0, Omega, SECTION3_PROFILE), base).hamiltonian()
        Kb = Extension(ExtensionSpec(6, 4, -4.0, 0.0, Omega, SECTION3_PROFILE), base).kbar_closed(3, 4)
        for x in phase_points(sample_points(50, 1006, 2)):
            worst = max(worst, abs(poisson_bracket(H, Kb, x)) / bracket_scale(H, Kb, x))
    ok = worst <= 1e-9
    _finish(4, "bracket sweep {H, Kbar} with Omega != 0", 20.0, t0, ok,
            f"max |bracket|/scale {worst:.2e}")


def test_criterion_05_oracle_equivalence():
    t0 = time.perf_counter()
    base = section3_base()
    ext1 = Extension(ExtensionSpec(1, 1, -4.0, 0.0, 0.0, SECTION3_PROFILE), base)
    worst_g = 0.0
    pts1 = phase_points(sample_points(20, 1007, 1))
    for n in range(1, 6):
        gr, gc = ext1.gn_recursive(n), ext1.gn_closed(n)
        for x in pts1:
            worst_g = max(worst_g, abs(gr(x) - gc(x)) / (1.0 + abs(gc(x))))
    worst_k = 0.0
    pts2 = phase_points(sample_points(20, 1008, 2))
    for m, n in [(1, 1), (2, 1), (3, 2), (4, 1), (5, 3)]:
        ext = Extension(ExtensionSpec(m, n, -4.0, 0.0, 0.0, SECTION3_PROFILE), base)
        kr, kc = ext.k_recursive(), ext.k_closed()
        for x in pts2:
            # scale includes the summand magnitudes: the cancelling closed
            # sums leave values orders below their own terms
            scale = 1.0 + abs(kc(x)) + ext.k_magnitude(x)
            worst_k = max(worst_k, abs(kr(x) - kc(x)) / scale)
    ok = worst_g <= 1e-10 and worst_k <= 1e-10
    _finish(5, "recursive vs closed-form G_n and K", 5.0, t0, ok,
            f"G_n {worst_g:.2e}, K {worst_k:.2e}")


def test_criterion_06_chart_consistency():
    t0 = time.perf_counter()
    worst_eq = 0.0
    worst_rt = 0.0
    for k in (Fraction(1), Fraction(1, 2), Fraction(3)):
        kf = float(k)
        mdl = make_minkowski_hamiltonian(k, 1.0, 2.0, 0.0)
        H_polar = mdl.extension.hamiltonian()
        for x in phase_points(sample_points(50, 1009, 2)):
            a = mdl.H(x)
            b = H_polar(to_pseudo_polar(kf, x))
            scale = 1.0 + abs(a) + abs(x.p[0] * x.p[1])
            worst_eq = max(worst_eq, abs(a - b) / scale)
            y = from_pseudo_polar(kf, to_pseudo_polar(kf, x))
            for u, v in zip(x.as_array(), y.as_array()):
                worst_rt = max(worst_rt, abs(u - v) / (1.0 + abs(u)))
    ok = worst_eq <= 1e-12 and worst_rt <= 1e-13
    _finish(6, "null vs pseudo-polar chart consistency", 1.0, t0, ok,
            f"equality {worst_eq:.2e}, round trip {worst_rt:.2e}")


def test_criterion_07_maximal_superintegrability():
    t0 = time.perf_counter()
    base = section3_base()
    ext = Extension(ExtensionSpec(4, 1, -4.0, 0.0, 0.0, SECTION3_PROFILE), base)
    H, K = ext.hamiltonian(), ext.k_closed()
    L2 = lift_last(base.L, 2)
    min_ratio = np.inf
    for x in phase_points(sample_points(20, 1010, 2)):
        jac = np.array([gradient(f, x) for f in (H, L2, K)])
        jac = jac / np.linalg.norm(jac, axis=1)[:, None]
        sv = np.linalg.svd(jac, compute_uv=False)
        min_ratio = min(min_ratio, sv[2] / sv[0])
    ok = min_ratio > 1e-8
    _finish(7, "rank(Jacobian(H, L, K)) = 3 at generic points", 2.0, t0, ok,
            f"min sigma3/sigma1 {min_ratio:.2e}")


def test_criterion_08_conservation_under_flow():
    t0 = time.perf_counter()
    # the stated run: k=1, alpha=1, beta=2, Omega=0, x0=(1, 0, 0.2, 0.5),
    # h=1e-3, 10^4 steps. This orbit has H = -4.48 < 0 with no inner turning
    # point (p_u^2 = 2H + 9/u^2), so it falls into u -> 0 in t ~ 0.29 and
    # cannot complete; see the drift figures for the computed segment.
    mdl = make_minkowski_hamiltonian(Fraction(1), 1.0, 2.0, 0.0)
    H = mdl.extension.hamiltonian()
    L2 = lift_last(mdl.base.L, 2)
    K = mdl.extension.k_closed()
    x0 = PhasePoint((1.0, 0.0), (0.2, 0.5))
    traj = integrate(H, x0, 1e-3, 10_000, u_min=0.05)
    completed = traj.status == COMPLETED
    rep = drift_report(traj, {"H": H, "L": L2, "K": K})

    # order check (halving h divides the H drift by ~4) on the same system,
    # measured over the pre-collapse window the orbit actually has
    window = 0.2
    d1 = drift_report(integrate(H, x0, 1e-3, int(window / 1e-3)), {"H": H})["H"]
    d2 = drift_report(integrate(H, x0, 5e-4, int(window / 5e-4)), {"H": H})["H"]
    ratio = d1 / d2 if d2 > 0 else np.inf
    order_ok = 3.0 <= ratio <= 5.5

    ok = completed and rep["H"] <= 1e-8 and rep["L"] <= 1e-6 and rep["K"] <= 1e-6 and order_ok
    detail = (
        f"status={traj.status} at step {traj.exit_step}, "
        f"drift H {rep['H']:.2e} L {rep['L']:.2e} K {rep['K']:.2e}, "
        f"h-halving ratio {ratio:.2f}"
    )
    _finish(8, "conservation along the stated 10^4-step flow", 30.0, t0, ok, detail)


def test_criterion_09_ccm():
    t0 = time.perf_counter()
    base = exp_base(0.7, 1.3, 2.0)
    eta4 = 16.0

    def K_builder(etilde):
        spec = ExtensionSpec(2, 1, base.c, 0.0, (-1.0 / eta4) * etilde, SECTION3_PROFILE)
        return Extension(spec, base).kbar_closed(1, 1)

    Hhat = Extension(ExtensionSpec(2, 1, base.c, 0.0, 0.0, SECTION3_PROFILE), base).hamiltonian()
    U = PhaseFunction(lambda q, p: q[0] * q[0], 2)
    Hp, Kp = ccm_transform(Hhat, K_builder, U, 0.4)
    worst = 0.0
    for x in phase_points(sample_points(30, 1011, 2)):
        worst = max(worst, abs(poisson_bracket(Hp, Kp, x)) / bracket_scale(Hp, Kp, x))
    H2, K2 = rescale_radial(Hp), rescale_radial(Kp)
    worst2 = 0.0
    for x in phase_points(sample_points(30, 1012, 2)):
        worst2 = max(worst2, abs(poisson_bracket(H2, K2, x)) / bracket_scale(H2, K2, x))
    ok = worst <= 1e-9 and worst2 <= 1e-9
    _finish(9, "coupling-constant metamorphosis brackets", 10.0, t0, ok,
            f"direct {worst:.2e}, rescaled {worst2:.2e}")


def test_criterion_10_curved_catalog():
    t0 = time.perf_counter()
    tb = trig_base(1.0, 0.2, 1.0, 0.5, 1.0)
    worst = 0.0
    cases = []
    for Omega in (0.0, 0.4):
        cases.append(make_curved_hamiltonian(tb, Fraction(1), 1, Omega))
        cases.append(make_curved_hamiltonian(tb, Fraction(1), -1, Omega))
        cases.append(make_flat_ttw_hamiltonian(tb, 2, 1, Omega))
    for mdl in cases:
        name, K = mdl.known_integrals[-1]
        for x in phase_points(sample_points(50, 1013, 2, q_ranges=mdl.q_windows)):
            worst = max(worst, abs(poisson_bracket(mdl.H, K, x)) / bracket_scale(mdl.H, K, x))
    ok = worst <= 1e-9
    _finish(10, "sphere, pseudosphere, and flat-plane brackets", 20.0, t0, ok,
            f"max |bracket|/scale {worst:.2e}")


def test_criterion_11_remark_pair():
    t0 = time.perf_counter()
    h1, h2 = make_remark_pair(2.0, 3.0)
    worst = 0.0
    for mdl in (h1, h2):
        _, I = mdl.known_integrals[0]
        for x in phase_points(sample_points(50, 1014, 2)):
            worst = max(worst, abs(poisson_bracket(mdl.H, I, x)) / bracket_scale(mdl.H, I, x))
    ok = worst <= 1e-10 and not h1.extendable and not h2.extendable
    _finish(11, "non-extendable pair bracket identities", 1.0, t0, ok,
            f"max |bracket|/scale {worst:.2e}")


def test_criterion_12_ladder_conditions():
    t0 = time.perf_counter()
    worst = 0.0
    for base in (section3_base(), trig_base(1.0, 0.2, 1.0, 0.5, 1.0)):
        data = ladder_from_base(base)
        for psi in sample_scalars(50, 1015, *base.psi_window).tolist():
            r1, r2, _ = ladder_residuals(data, psi)
            scale = 1.0 + abs(base.V.rule((psi,), (0.0,)))
            worst = max(worst, abs(r1) / scale, abs(r2) / scale)
    # the second-order diagnostic is reported, never gated
    data = ladder_from_base(section3_base())
    pattern = ladder_eigen_pattern(data, PhasePoint((0.8,), (0.9,)))
    diag = ", ".join(f"{k}={v:.2e}" for k, v in pattern.items())
    ok = worst <= 1e-10
    _finish(12, "ladder residuals on hyperbolic and trig bases", 1.0, t0, ok,
            f"max residual/scale {worst:.2e}; diagnostic: {diag}")


def test_criterion_13_gamma_tables():
    t0 = time.perf_counter()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["gamma-table", "--json"])
    table = json.loads(buf.getvalue())
    rows = table["gamma_prime"] + table["gamma_squared"] + table["c_zero"]
    ok = code == 0 and table["pass"] and all(r["match"] for r in rows)
    _finish(13, "translation tables reproduced by the CLI", 1.0, t0, ok,
            f"{len(rows)} rows classified")
