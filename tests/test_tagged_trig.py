import math

import numpy as np
import pytest

from extham.duals import Dual, derivative, new_tag
from extham.sampling import sample_scalars
from extham.tagged_trig import (
    GammaPoleError,
    GammaProfile,
    gamma,
    gamma_and_prime,
    gamma_prime,
    tagged_C,
    tagged_S,
    tagged_T,
)

import references
from references import leaf_values, ode_residual


def _series_sinh(x, terms=25):
    # independent oracle: truncated Taylor series of sinh
    total, term = 0.0, x
    for k in range(terms):
        total += term
        term *= x * x / ((2 * k + 2) * (2 * k + 3))
    return total


def test_tagged_s_examples():
    assert tagged_S(0.0, 2.5) == 2.5
    assert tagged_S(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert tagged_S(-1.0, 1.0) == pytest.approx(_series_sinh(1.0), rel=1e-14)


def test_tagged_c_and_t():
    assert tagged_C(0.0, 1.7) == 1.0
    assert tagged_C(1.0, 0.4) == pytest.approx(math.cos(0.4), rel=1e-15)
    assert tagged_C(-4.0, 0.4) == pytest.approx(math.cosh(0.8), rel=1e-15)
    for kappa in (-2.0, -1.0, 1.0, 3.0):
        for x in (0.2, 0.9, 1.4):
            assert tagged_T(kappa, x) == pytest.approx(
                tagged_S(kappa, x) / tagged_C(kappa, x), rel=1e-15
            )


def test_tagged_continuity_at_zero_curvature():
    for x in (-1.7, 0.3, 2.0):
        for kappa in (1e-8, -1e-8):
            assert tagged_S(kappa, x) == pytest.approx(tagged_S(0.0, x), abs=1e-7)
            assert tagged_C(kappa, x) == pytest.approx(1.0, abs=1e-7)


def test_gamma_examples():
    # c=-4, C=0: gamma = 1/(c u)
    prof = GammaProfile.from_c_C(-4.0, 0.0)
    assert gamma(prof, 0.5) == pytest.approx(-0.5, rel=1e-15)
    # c=0: gamma = -C u
    prof0 = GammaProfile.from_c_C(0.0, -1.0)
    assert gamma(prof0, 3.0) == pytest.approx(3.0, rel=1e-15)
    # c=1, C=1: gamma = cot(u), checked against direct evaluation and the ODE
    prof1 = GammaProfile.from_c_C(1.0, 1.0)
    assert gamma(prof1, 0.7) == pytest.approx(math.cos(0.7) / math.sin(0.7), rel=1e-14)
    assert abs(ode_residual(prof1, 0.7)) <= 1e-14


def test_gamma_prime_rows_and_finite_difference():
    # table rows, signs included
    p11 = GammaProfile.from_c_kappa(1.0, 1.0)
    assert gamma_prime(p11, 0.6) == pytest.approx(-1.0 / math.sin(0.6) ** 2, rel=1e-13)
    pm1m1 = GammaProfile.from_c_kappa(-1.0, -1.0)
    assert gamma_prime(pm1m1, 0.6) == pytest.approx(1.0 / math.sinh(0.6) ** 2, rel=1e-13)
    # c=-4, C=0 at u=0.5: gamma' = -1/(c u^2) = 1.0, confirmed by differentiation
    prof = GammaProfile.from_c_C(-4.0, 0.0)
    assert gamma_prime(prof, 0.5) == pytest.approx(1.0, rel=1e-14)
    h = 1e-6
    fd = (gamma(prof, 0.5 + h) - gamma(prof, 0.5 - h)) / (2 * h)
    assert gamma_prime(prof, 0.5) == pytest.approx(fd, abs=1e-8)
    ad = derivative(lambda u: gamma(prof, u), 0.5)
    assert gamma_prime(prof, 0.5) == pytest.approx(ad, rel=1e-14)


def _profile_grid():
    profiles = []
    for c in (-4.0, -1.0, 0.0, 1.0):
        for kappa in (-1.0, 0.0, 1.0):
            for shift in (0.0, math.pi / 2):
                if c == 0.0:
                    # kappa is unused at c=0; C must stay nonzero
                    profiles.append(GammaProfile(0.0, 1.0, kappa, shift))
                else:
                    profiles.append(GammaProfile.from_c_kappa(c, kappa, shift))
    return profiles


def test_ode_residual_on_24_profile_grid():
    profiles = _profile_grid()
    assert len(profiles) == 24
    for prof in profiles:
        for u in sample_scalars(50, 123, 0.05, 2.2).tolist():
            try:
                g = gamma(prof, u)
            except GammaPoleError:
                continue
            assert abs(ode_residual(prof, u)) <= 1e-12 * (1.0 + g * g)


def test_gamma_and_prime_equal_separate_calls_on_24_profile_grid():
    us = sample_scalars(50, 123, 0.05, 2.2).tolist()
    for prof in _profile_grid():
        good = []
        for u in us:
            try:
                ref = (gamma(prof, u), gamma_prime(prof, u))
            except GammaPoleError:
                continue
            good.append(u)
            assert gamma_and_prime(prof, u) == ref
            x = Dual(u, 0.7, new_tag())
            assert leaf_values(gamma_and_prime(prof, x)) == leaf_values(
                [gamma(prof, x), gamma_prime(prof, x)])
        col = np.array(good)
        assert leaf_values(gamma_and_prime(prof, col)) == leaf_values(
            [gamma(prof, col), gamma_prime(prof, col)])


def test_translated_branches_solve_ode_with_table_signs():
    # translated kappa=-1 rows: gamma' = +cosh^-2 for c=1, -cosh^-2 for c=-1
    for c, sign in ((1.0, 1.0), (-1.0, -1.0)):
        prof = GammaProfile.from_c_kappa(c, -1.0, translated=True)
        for u in (0.3, 0.9, 1.5):
            assert gamma_prime(prof, u) == pytest.approx(
                sign / math.cosh(u) ** 2, rel=1e-13
            )
            g = gamma(prof, u)
            assert abs(ode_residual(prof, u)) <= 1e-12 * (1.0 + g * g)
    # translated kappa=+1: gamma^2 = tan^2 u for either sign of c
    for c in (1.0, -1.0):
        prof = GammaProfile.from_c_kappa(c, 1.0, translated=True)
        assert gamma(prof, 0.4) ** 2 == pytest.approx(math.tan(0.4) ** 2, rel=1e-12)


def test_pole_errors_report_offending_u():
    prof = GammaProfile.from_c_C(-4.0, 0.0)
    with pytest.raises(GammaPoleError) as err:
        gamma(prof, 0.0)
    assert err.value.u == 0.0
    with pytest.raises(GammaPoleError):
        gamma_prime(prof, 0.0)
    with pytest.raises(GammaPoleError):
        gamma_and_prime(prof, 0.0)
    # near (but not exactly at) a pole the value stays finite, never +-inf
    proft = GammaProfile.from_c_kappa(1.0, 1.0, translated=True)
    assert math.isfinite(gamma(proft, math.pi / 2))
    with pytest.raises(GammaPoleError):
        gamma(GammaProfile.from_c_kappa(1.0, 1.0), 0.0)


@pytest.mark.parametrize("u", [1e-301, 1e-200, 1e-160])
@pytest.mark.parametrize("fn", [gamma, gamma_prime, gamma_and_prime])
def test_pole_guard_covers_the_window_where_d_squared_underflows(fn, u):
    # d = -4u: below |d| = 2**-511, d*d is subnormal or zero, and a/(d*d) inf or 1/0
    with pytest.raises(GammaPoleError) as err:
        fn(GammaProfile.from_c_C(-4.0, 0.0), u)
    assert err.value.u == u


def test_pole_guard_leaves_finite_values_just_outside_the_window():
    d = -4.0 * 1e-150
    expected = (1.0 / d, 4.0 / (d * d))
    prof = GammaProfile.from_c_C(-4.0, 0.0)
    assert gamma_and_prime(prof, 1e-150) == expected
    assert (gamma(prof, 1e-150), gamma_prime(prof, 1e-150)) == expected
    assert all(math.isfinite(v) for v in expected)


def test_pole_errors_in_a_batch_name_the_first_offending_u():
    prof = GammaProfile.from_c_C(-4.0, 0.0)
    for fn in (gamma, gamma_prime, gamma_and_prime):
        with pytest.raises(GammaPoleError) as batched:
            fn(prof, np.array([0.5, -0.0, 0.0, 0.7]))
        with pytest.raises(GammaPoleError) as single:
            fn(prof, -0.0)
        assert str(batched.value) == str(single.value) == "gamma profile singular at u=-0.0"


def test_profile_validation():
    with pytest.raises(ValueError):
        GammaProfile(0.0, 1.0, 1.0, translated=True)
    with pytest.raises(ValueError):
        GammaProfile(1.0, 1.0, 0.5)
    # kappa stored explicitly survives the c=0 limit
    prof = GammaProfile(0.0, 2.0, 0.0)
    assert gamma(prof, 1.0) == -2.0


def _outcome(fn, prof, u):
    """fn(prof, u) spelled out leaf by leaf, or the pole it raised and where."""
    try:
        return "value", leaf_values(fn(prof, u))
    except GammaPoleError as err:
        return "pole", str(err), err.u


# (c, kappa, translated): c = 0, principal with kappa of either sign,
# translated with kappa of either sign
_BRANCHES = [(0.0, 0.0, False), (-1.0, 2.0, False), (1.5, -2.0, False),
             (-1.0, 2.0, True), (1.5, -2.0, True)]


@pytest.mark.parametrize("c,kappa,translated", _BRANCHES)
def test_gamma_evaluators_equal_the_reference_on_every_branch(c, kappa, translated):
    if c == 0.0:
        prof = GammaProfile(0.0, 1.5, 0.0)
    else:
        prof = GammaProfile.from_c_kappa(c, kappa, translated=translated)
    us = sample_scalars(20, 321, -2.2, 2.2).tolist() + [0.0, -0.0, math.pi / 2, math.pi / 2 ** 1.5]
    tag = new_tag()
    leaves = us + [Dual(u, 0.7, tag) for u in us] + [np.array(us), np.array([0.4, -0.0, 0.0, 0.9])]
    leaves.append(Dual(np.array(us[:12]), np.array(us[12:]), tag))
    poles = 0
    for u in leaves:
        g = _outcome(references.gamma, prof, u)
        gp = _outcome(references.gamma_prime, prof, u)
        assert _outcome(gamma, prof, u) == g
        assert _outcome(gamma_prime, prof, u) == gp
        assert g[0] == gp[0]  # one denominator guards both
        poles += g[0] == "pole"
        expected = g if g[0] == "pole" else ("value", [g[1], gp[1]])
        assert _outcome(gamma_and_prime, prof, u) == expected
    # u = 0 is a pole of the principal branches: the guard is exercised there
    assert poles == (0 if c == 0.0 or translated else 6)
