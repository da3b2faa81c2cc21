import numpy as np
import pytest

from extham import duals as dm
from extham.catalog import exp_base, trig_base
from extham.duals import derivative, taylor
from extham.ladder import (
    LadderData,
    ladder_eigen_pattern,
    ladder_from_base,
    ladder_function,
    ladder_residuals,
    ladder_scale,
)
from extham.phase import PhasePoint
from extham.sampling import sample_scalars

from references import nth_derivative


@pytest.fixture(scope="module")
def hyper():
    return exp_base(0.7, 1.3)  # eta = 2, c = -4


@pytest.fixture(scope="module")
def trig():
    return trig_base(1.0, 0.2, 1.0, 0.5, 1.0)


def test_family_ladder_residuals_vanish(hyper, trig):
    for base in (hyper, trig):
        data = ladder_from_base(base)
        for psi in sample_scalars(50, 81, *base.psi_window).tolist():
            r1, r2 = ladder_residuals(data, psi)
            s = ladder_scale(data, psi)
            assert abs(r1) <= 1e-10 * s
            assert abs(r2) <= 1e-10 * s


def _nested_residuals(data, psi):
    """(r1, r2) one point at a time by nested duals: F'' is a third derivative of g."""
    base, F = data.base, data.F
    V = lambda t: base.V.rule((t,), (0.0,))
    r1 = nth_derivative(F, psi, 2) + base.c * F(psi)
    r2 = derivative(V, psi) * derivative(F, psi) - 2.0 * base.c * V(psi) * F(psi) + data.c1
    return r1, r2


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_batched_residuals_equal_nested_duals(seed):
    # the bases of `extham ladder` at its default flags
    for base in (exp_base(0.7, 1.3, 2.0), trig_base(1.0, 0.2, 0.7, 1.3, 2.0)):
        data = ladder_from_base(base)
        psis = sample_scalars(50, seed, *base.psi_window).tolist()
        ref = [_nested_residuals(data, psi) for psi in psis]
        col = np.array(psis)
        r1, r2 = ladder_residuals(data, col)
        assert r1.tolist() == [a for a, _ in ref]
        assert r2.tolist() == [b for _, b in ref]
        assert ladder_scale(data, col).tolist() == [ladder_scale(data, x) for x in psis]


def test_free_base_potential_has_zero_derivatives():
    free = exp_base(0.0, 0.0)
    assert taylor(lambda t: free.V.rule((t,), (0.0,)), 0.7, 2) == [0.0, 0.0, 0.0]


def test_hyperbolic_c1_value(hyper):
    # c1 = -c^2 C4/eta = -C4 eta^3 for the hyperbolic branch
    data = ladder_from_base(hyper)
    assert data.c1 == pytest.approx(-hyper.params["C4"] * 2.0**3, rel=1e-14)


def test_zero_function_is_rejected_by_r2(hyper):
    data = ladder_from_base(hyper)
    zero = LadderData(F=lambda psi: 0.0 * psi, c1=data.c1, base=hyper)
    r1, r2 = ladder_residuals(zero, 0.8)
    assert r1 == 0.0
    assert r2 == pytest.approx(data.c1)
    assert abs(r2) > 1e-6  # C4 != 0 makes the trivial F fail the second condition
    r1s, r2s = ladder_residuals(zero, np.array([0.5, 0.8, 1.5]))
    assert r1s.tolist() == [0.0] * 3 and r2s.tolist() == [r2] * 3


def test_generic_exponential_fails_second_condition(hyper):
    data = ladder_from_base(hyper)
    cand = LadderData(F=lambda psi: dm.exp(2.0 * psi), c1=data.c1, base=hyper)
    r1s, r2s = zip(*(ladder_residuals(cand, psi) for psi in (0.5, 1.0, 1.5)))
    assert all(abs(r) <= 1e-12 for r in r1s)  # solves F'' - eta^2 F = 0
    assert any(abs(r) > 1e-3 for r in r2s)  # but not the potential condition
    b1, b2 = ladder_residuals(cand, np.array([0.5, 1.0, 1.5]))
    assert (b1.tolist(), b2.tolist()) == (list(r1s), list(r2s))


def test_r2_is_linear_in_potential_parameters():
    # superposition in (C3, C4) with a fixed probe F
    from extham.catalog import make_base_family

    probe = lambda psi: dm.exp(2.0 * psi)
    bases = [
        make_base_family(1.0, 0.4, c3, c4, 2.0, "hyperbolic")
        for c3, c4 in ((0.9, 0.0), (0.0, 1.1), (0.9, 1.1))
    ]
    datas = [
        LadderData(F=probe, c1=-(b.c**2) * b.params["C4"] / b.eta_hat, base=b)
        for b in bases
    ]
    for psi in (0.5, 1.0, 1.6):
        r2 = [ladder_residuals(d, psi)[1] for d in datas]
        assert r2[0] + r2[1] == pytest.approx(r2[2], rel=1e-11)


def test_eigen_pattern_on_hyperbolic_base(hyper):
    # the printed second-order relation with f fails; X_L^2 F = f^2 F and
    # X_L F = (+/-) f F hold: this is the recorded empirical pattern
    data = ladder_from_base(hyper)
    for sign in (1, -1):
        for psi, pp in ((0.6, 0.9), (1.2, -0.4)):
            x = PhasePoint((psi,), (pp,))
            pattern = ladder_eigen_pattern(data, x, sign)
            scale = 1.0 + abs(ladder_function(data, sign)(x))
            assert abs(pattern["second_order_vs_f_squared"]) <= 1e-8 * scale
            assert abs(pattern["first_order_vs_sign_f"]) <= 1e-9 * scale
            assert abs(pattern["second_order_vs_f"]) > 1e-2 * scale


def test_eigen_diagnostic_domain_error_on_trig(trig):
    # eta^2 L + c0 = -c L < 0 on the trig branch with positive V
    data = ladder_from_base(trig)
    x = PhasePoint((trig.psi_window[0] + 0.2,), (0.5,))
    with pytest.raises(ValueError):
        ladder_eigen_pattern(data, x)


def test_ladder_momentum_reflection(hyper):
    data = ladder_from_base(hyper)
    plus, minus = ladder_function(data, 1), ladder_function(data, -1)
    for psi, pp in ((0.7, 1.1), (1.4, -0.6)):
        a = plus(PhasePoint((psi,), (pp,)))
        b = minus(PhasePoint((psi,), (-pp,)))
        assert a == pytest.approx(b, rel=1e-13)


def test_ladder_requires_gauge_function(hyper):
    bare = type(hyper)(
        family="bare",
        params={},
        c=-4.0,
        c0=0.0,
        V=hyper.V,
        L=hyper.L,
        G=hyper.G,
        g_scalar=None,
        eta_hat=2.0,
    )
    with pytest.raises(ValueError):
        ladder_from_base(bare)
