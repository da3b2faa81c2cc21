import math

import pytest

from extham import duals as dm
from extham.catalog import exp_base, make_minkowski_hamiltonian, trig_base
from extham.phase import (
    PhaseFunction,
    PhasePoint,
    batch_blocks,
    constant,
    coordinate,
    fd_gradient,
    fd_poisson_bracket,
    gradient,
    hamiltonian_vector_field,
    lift_last,
    momentum,
    partials_at,
    poisson_bracket,
)
from extham.sampling import sample_points
from fractions import Fraction

import numpy as np


def test_phase_point_validation():
    with pytest.raises(ValueError):
        PhasePoint((1.0, 2.0), (0.5,))
    with pytest.raises(ValueError):
        PhasePoint((float("nan"),), (0.0,))
    with pytest.raises(ValueError, match="non-finite phase point"):
        PhasePoint((1.0,), (float("inf"),))
    x = PhasePoint((1, 2), (3, 4))
    assert x.dof == 2 and x.q == (1.0, 2.0)


@pytest.mark.parametrize("seed", [1, 2, 3, 43, 1007])
@pytest.mark.parametrize(
    "dof, q_ranges, p_range",
    [(2, None, (-2.0, 2.0)), (1, None, (-2.0, 2.0)),
     (2, ((0.3, 2.0), (0.05, 1.4)), (-1.0, 3.0)), (3, ((0.1, 0.2), (1, 2), (-3, -1)), (-2.0, 2.0))],
)
def test_sample_points_equal_one_draw_per_coordinate(seed, dof, q_ranges, p_range):
    # the reference draws q then p for each point, one rng.uniform call each
    rng = np.random.Generator(np.random.Philox(key=seed))
    windows = q_ranges if q_ranges is not None else [(0.3, 2.0)] * dof
    expected = []
    for _ in range(23):
        q = tuple(float(rng.uniform(lo, hi)) for lo, hi in windows)
        p = tuple(float(rng.uniform(p_range[0], p_range[1])) for _ in range(dof))
        expected.append((q, p))
    pts = sample_points(23, seed, dof, p_range=p_range, q_ranges=q_ranges)
    assert all(isinstance(x, PhasePoint) for x in pts)
    assert [(x.q, x.p) for x in pts] == expected


def test_canonical_bracket():
    q0, p0 = coordinate(0, 2), momentum(0, 2)
    x = PhasePoint((0.3, 1.1), (-0.4, 0.9))
    assert poisson_bracket(q0, p0, x) == pytest.approx(1.0, abs=1e-15)
    assert poisson_bracket(q0, coordinate(1, 2), x) == pytest.approx(0.0, abs=1e-15)
    f = q0 * p0 + momentum(1, 2) ** 2
    assert poisson_bracket(f, f, x) == pytest.approx(0.0, abs=1e-15)


def test_bracket_frozen_example():
    # f = p^2/2 + V, g = e^{2 psi} p with V = e^{-4 psi} + e^{-2 psi}:
    # {f, g}(0, 1) = e^{2 psi}(V' - 2 p^2) = -6 - 2 = -8 (hand derivation)
    f = PhaseFunction(
        lambda q, p: 0.5 * p[0] * p[0] + dm.exp(-4.0 * q[0]) + dm.exp(-2.0 * q[0]), 1
    )
    g = PhaseFunction(lambda q, p: dm.exp(2.0 * q[0]) * p[0], 1)
    x = PhasePoint((0.0,), (1.0,))
    assert poisson_bracket(f, g, x) == pytest.approx(-8.0, abs=1e-13)
    assert fd_poisson_bracket(f, g, x) == pytest.approx(-8.0, abs=1e-6)


def test_hamiltonian_vector_field_free_motion():
    L = PhaseFunction(lambda q, p: 0.5 * p[0] * p[0], 1)
    psi = coordinate(0, 1)
    xf = hamiltonian_vector_field(L, psi)
    x = PhasePoint((0.7,), (1.3,))
    assert xf(x) == pytest.approx(1.3, abs=1e-15)


def test_hamiltonian_vector_field_seed_action():
    at, bt = 0.8, 1.7
    V = lambda s: at * dm.exp(-4.0 * s) + bt * dm.exp(-2.0 * s)
    dV = lambda s: -4.0 * at * dm.exp(-4.0 * s) - 2.0 * bt * dm.exp(-2.0 * s)
    L = PhaseFunction(lambda q, p: 0.5 * p[0] * p[0] + V(q[0]), 1)
    G = PhaseFunction(lambda q, p: dm.exp(2.0 * q[0]) * p[0], 1)
    XG = hamiltonian_vector_field(L, G)
    for x in sample_points(10, 3, 1):
        psi, pp = x.q[0], x.p[0]
        # hand differentiation: X_L(G) = e^{2 psi}(2 p^2 - V')
        expected = math.exp(2 * psi) * (2 * pp * pp - dm.primal(dV(psi)))
        assert XG(x) == pytest.approx(expected, rel=1e-12)
        assert XG(x) == pytest.approx(fd_poisson_bracket(G, L, x), abs=2e-5)
    # X_L^2(G) = 8 L G pointwise for this potential (the c = -4 seed identity)
    X2G = hamiltonian_vector_field(L, XG)
    for x in sample_points(10, 4, 1):
        assert X2G(x) == pytest.approx(8.0 * L(x) * G(x), rel=1e-11)


def test_antisymmetry_and_leibniz():
    f = PhaseFunction(lambda q, p: dm.sin(q[0]) * p[1] + q[1] ** 2 * p[0], 2)
    g = PhaseFunction(lambda q, p: dm.exp(q[1]) * p[0] * p[0] + q[0], 2)
    h = PhaseFunction(lambda q, p: q[0] * q[1] + dm.cosh(p[1]), 2)
    for x in sample_points(15, 5, 2):
        a = poisson_bracket(f, g, x)
        b = poisson_bracket(g, f, x)
        assert abs(a + b) <= 1e-12 * (1.0 + abs(a))
        lhs = poisson_bracket(f, g * h, x)
        rhs = poisson_bracket(f, g, x) * h(x) + g(x) * poisson_bracket(f, h, x)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs) + abs(rhs))


def test_jacobi_identity_with_nested_scheme():
    f = PhaseFunction(lambda q, p: q[0] ** 2 * p[1] + q[1] * p[0], 2)
    g = PhaseFunction(lambda q, p: p[0] * p[1] + q[0] * q[1] ** 2, 2)
    h = PhaseFunction(lambda q, p: q[0] * p[0] ** 2 - q[1] ** 3, 2)

    def nest(a, b):
        # the bracket {a, b} = X_b(a) as a new phase function (re-instrumented)
        return hamiltonian_vector_field(b, a)

    for x in sample_points(20, 6, 2):
        t1 = poisson_bracket(f, nest(g, h), x)
        t2 = poisson_bracket(g, nest(h, f), x)
        t3 = poisson_bracket(h, nest(f, g), x)
        total = t1 + t2 + t3
        scale = 1.0 + abs(t1) + abs(t2) + abs(t3)
        assert abs(total) <= 1e-9 * scale


def test_exact_vs_finite_difference_on_catalog_hamiltonians():
    from extham.catalog import make_curved_hamiltonian, make_flat_ttw_hamiltonian

    tb = trig_base(1.0, 0.2, 1.0, 0.5, 1.0)
    mink = make_minkowski_hamiltonian(Fraction(1), 1.0, 2.0, 0.3)
    sphere = make_curved_hamiltonian(tb, Fraction(1), 1, 0.2)
    ttw = make_flat_ttw_hamiltonian(tb, 2, 1, 0.2)
    hams = [
        (mink.H, ((0.5, 1.8), (0.5, 1.8))),
        (lift_last(exp_base(0.7, 1.3).L, 2), ((0.5, 1.8), (0.5, 1.8))),
        (sphere.H, sphere.q_windows),
        (ttw.H, ttw.q_windows),
    ]
    for H, windows in hams:
        for x in sample_points(10, 7, 2, q_ranges=windows):
            ad = gradient(H, x)
            fd = fd_gradient(H, x, h=1e-5)
            scale = 1.0 + np.abs(fd).max()
            assert np.max(np.abs(ad - fd)) <= 1e-6 * scale


def test_lift_and_algebra():
    base = PhaseFunction(lambda q, p: q[0] + p[0] ** 2, 1)
    lifted = lift_last(base, 2)
    x = PhasePoint((9.0, 0.4), (7.0, 1.5))
    assert lifted(x) == pytest.approx(0.4 + 2.25)
    combo = 2.0 * lifted - constant(1.0, 2) + lifted / 2.0
    assert combo(x) == pytest.approx(2 * 2.65 - 1 + 2.65 / 2)
    with pytest.raises(ValueError):
        lift_last(lifted, 1)
    with pytest.raises(ValueError):
        poisson_bracket(base, lifted, x)


def test_rule_calls_per_partials_at():
    # float leaves stay seeded, one evaluation per direction: tangent bookkeeping
    # costs more than the primal work it saves on a scalar; Batch leaves take
    # one evaluation for every direction and point
    calls = []

    def rule(q, p):
        calls.append(1)
        return dm.exp(q[0] * p[1]) + q[1] * p[0] * p[0]

    f = PhaseFunction(rule, 2)
    z = np.array([[0.5, 0.7, 1.5, -0.2], [1.1, 0.3, -0.4, 0.9], [0.8, 1.9, 0.2, 0.6]])
    per_point = [partials_at(f, tuple(row[:2]), tuple(row[2:]), range(2)) for row in z.tolist()]
    assert len(calls) == 4 * len(z)
    calls.clear()
    value, dq, dp = partials_at(f, *batch_blocks(z), range(2))
    assert len(calls) == 1
    assert value.tolist() == [v for v, _, _ in per_point]
    assert [d.tolist() for d in dq + dp] == [[fq[s] for _, fq, _ in per_point] for s in range(2)] + [
        [fp[s] for _, _, fp in per_point] for s in range(2)]


def test_ignored_slot_gets_positive_zero_on_batch_leaves():
    # a slot the function never reads is a structural zero, never -(0.0)
    z = np.array([[0.5, 0.7, 1.5, -0.2], [1.1, 0.3, -0.4, 0.9]])
    for f in (PhaseFunction(lambda q, p: -(q[0] * p[0]), 2),
              PhaseFunction(lambda q, p: -q[0] - 2.0 * p[0], 2),
              PhaseFunction(lambda q, p: 0.0 * (q[0] - p[0]), 2)):
        _, dq, dp = partials_at(f, *batch_blocks(z), range(2))
        for d in (dq[1], dp[1]):
            assert d == 0.0 and math.copysign(1.0, d) == 1.0
        # the seeded float evaluations agree
        for row in z.tolist():
            _, fq, fp = partials_at(f, tuple(row[:2]), tuple(row[2:]), range(2))
            assert math.copysign(1.0, fq[1]) == math.copysign(1.0, fp[1]) == 1.0
    const = PhaseFunction(lambda q, p: 2.5, 2)
    assert partials_at(const, *batch_blocks(z), range(2)) == (2.5, [0.0, 0.0], [0.0, 0.0])
