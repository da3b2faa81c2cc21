import inspect
import math
import random

import pytest

from extham import catalog, phase
from extham import duals as dm
from extham.catalog import exp_base, make_minkowski_hamiltonian, trig_base
from extham.duals import primal
from extham.extension import flow_jets_by_evaluation
from extham.phase import (
    PhaseFunction,
    PhasePoint,
    compile_rule,
    gradient,
    hamiltonian_vector_field,
    lift_last,
    partials_at,
    poisson_bracket,
)
from extham.sampling import sample_points, sample_scalars
from extham.tagged_trig import GammaPoleError
from fractions import Fraction

import numpy as np

from references import (
    columns,
    compile_partials,
    fd_gradient,
    fd_poisson_bracket,
    leaf_bits,
    phase_points,
    seeded_partials,
)


def test_phase_point_validation():
    with pytest.raises(ValueError):
        PhasePoint((1.0, 2.0), (0.5,))
    with pytest.raises(ValueError):
        PhasePoint((float("nan"),), (0.0,))
    with pytest.raises(ValueError, match="non-finite phase point"):
        PhasePoint((1.0,), (float("inf"),))
    x = PhasePoint((1, 2), (3, 4))
    assert x.dof == 2 and x.q == (1.0, 2.0)


@pytest.mark.parametrize("seed", [1, 2, 3, 43, 1007, 2**64, 2**127 + 5, 2**128 - 1])
@pytest.mark.parametrize(
    "dof, q_ranges",
    [(2, None), (1, None), (2, ((0.3, 2.0), (0.05, 1.4))), (3, ((0.1, 0.2), (1, 2), (-3, -1)))],
)
def test_sample_points_equal_one_draw_per_coordinate(seed, dof, q_ranges):
    # the reference draws q then p for each point, one rng.uniform call each;
    # momenta always come from [-2, 2]. At dof 1 and 3, draws of 1, 2, 3 and
    # 5 points end inside a counter block of four words.
    windows = q_ranges if q_ranges is not None else [(0.3, 2.0)] * dof
    for num in (1, 2, 3, 5, 23):
        rng = np.random.Generator(np.random.Philox(key=seed))
        expected = []
        for _ in range(num):
            q = tuple(float(rng.uniform(lo, hi)) for lo, hi in windows)
            p = tuple(float(rng.uniform(-2.0, 2.0)) for _ in range(dof))
            expected.append(list(q + p))
        z = sample_points(num, seed, dof, q_ranges=q_ranges)
        assert type(z) is np.ndarray and z.dtype == np.float64 and z.shape == (num, 2 * dof)
        assert z.tolist() == expected


def test_sample_scalars_equal_one_draw_per_value():
    for seed in (3, 2**64, 2**127 + 5, 2**128 - 1):
        for num in (1, 2, 3, 5, 23):
            rng = np.random.Generator(np.random.Philox(key=seed))
            expected = [float(rng.uniform(0.05, 2.2)) for _ in range(num)]
            col = sample_scalars(num, seed, 0.05, 2.2)
            assert type(col) is np.ndarray and col.dtype == np.float64 and col.shape == (num,)
            assert col.tolist() == expected


def test_a_large_draw_equals_numpys_philox():
    # 50 000 points read 200 000 words, over 50 000 counter blocks
    rng = np.random.Generator(np.random.Philox(key=2**127 + 5))
    expected = rng.uniform((0.3, 0.05, -2.0, -2.0), (2.0, 1.4, 2.0, 2.0), size=(50_000, 4))
    z = sample_points(50_000, 2**127 + 5, 2, q_ranges=((0.3, 2.0), (0.05, 1.4)))
    assert z.tolist() == expected.tolist()


def test_canonical_bracket():
    q0, p0 = PhaseFunction(lambda q, p: q[0], 2), PhaseFunction(lambda q, p: p[0], 2)
    x = PhasePoint((0.3, 1.1), (-0.4, 0.9))
    assert poisson_bracket(q0, p0, x) == pytest.approx(1.0, abs=1e-15)
    assert poisson_bracket(q0, PhaseFunction(lambda q, p: q[1], 2), x) == pytest.approx(0.0, abs=1e-15)
    f = PhaseFunction(lambda q, p: q[0] * p[0] + p[1] ** 2, 2)
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


def test_poisson_bracket_is_x_g_of_f():
    # {f, g} at x is X_g(f) at x bit for bit, and a point of another dof is refused
    f = PhaseFunction(lambda q, p: dm.sin(q[0]) * p[1] + q[1] ** 2 * p[0], 2)
    g = PhaseFunction(lambda q, p: dm.exp(q[1]) * p[0] * p[0] + q[0], 2)
    mink = make_minkowski_hamiltonian(Fraction(1), 1.0, 2.0, 0.3)
    K = mink.known_integrals[1][1]
    for a, b in ((f, g), (g, f), (mink.H, K), (K, mink.H)):
        for x in phase_points(sample_points(10, 11, 2, q_ranges=((0.5, 1.8), (0.5, 1.8)))):
            assert poisson_bracket(a, b, x).hex() == hamiltonian_vector_field(b, a)(x).hex()
    for x in (PhasePoint((0.3,), (0.4,)), PhasePoint((0.3, 0.5, 0.7), (0.1, 0.2, 0.4))):
        with pytest.raises(ValueError, match="2 dof evaluated at a"):
            poisson_bracket(f, g, x)


def test_hamiltonian_vector_field_free_motion():
    L = PhaseFunction(lambda q, p: 0.5 * p[0] * p[0], 1)
    psi = PhaseFunction(lambda q, p: q[0], 1)
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
    for x in phase_points(sample_points(10, 3, 1)):
        psi, pp = x.q[0], x.p[0]
        # hand differentiation: X_L(G) = e^{2 psi}(2 p^2 - V')
        expected = math.exp(2 * psi) * (2 * pp * pp - dm.primal(dV(psi)))
        assert XG(x) == pytest.approx(expected, rel=1e-12)
        assert XG(x) == pytest.approx(fd_poisson_bracket(G, L, x), abs=2e-5)
    # X_L^2(G) = 8 L G pointwise for this potential (the c = -4 seed identity)
    X2G = hamiltonian_vector_field(L, XG)
    for x in phase_points(sample_points(10, 4, 1)):
        assert X2G(x) == pytest.approx(8.0 * L(x) * G(x), rel=1e-11)


def test_antisymmetry_and_leibniz():
    f = PhaseFunction(lambda q, p: dm.sin(q[0]) * p[1] + q[1] ** 2 * p[0], 2)
    g = PhaseFunction(lambda q, p: dm.exp(q[1]) * p[0] * p[0] + q[0], 2)
    h = PhaseFunction(lambda q, p: q[0] * q[1] + dm.cosh(p[1]), 2)
    for x in phase_points(sample_points(15, 5, 2)):
        a = poisson_bracket(f, g, x)
        b = poisson_bracket(g, f, x)
        assert abs(a + b) <= 1e-12 * (1.0 + abs(a))
        gh = PhaseFunction(lambda q, p: g.rule(q, p) * h.rule(q, p), 2)
        lhs = poisson_bracket(f, gh, x)
        rhs = poisson_bracket(f, g, x) * h(x) + g(x) * poisson_bracket(f, h, x)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs) + abs(rhs))


def test_jacobi_identity_with_nested_scheme():
    f = PhaseFunction(lambda q, p: q[0] ** 2 * p[1] + q[1] * p[0], 2)
    g = PhaseFunction(lambda q, p: p[0] * p[1] + q[0] * q[1] ** 2, 2)
    h = PhaseFunction(lambda q, p: q[0] * p[0] ** 2 - q[1] ** 3, 2)

    def nest(a, b):
        # the bracket {a, b} = X_b(a) as a new phase function (re-instrumented)
        return hamiltonian_vector_field(b, a)

    for x in phase_points(sample_points(20, 6, 2)):
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
        for x in phase_points(sample_points(10, 7, 2, q_ranges=windows)):
            ad = gradient(H, x)
            fd = fd_gradient(H, x, h=1e-5)
            scale = 1.0 + np.abs(fd).max()
            assert np.max(np.abs(ad - fd)) <= 1e-6 * scale


def test_lift_last():
    base = PhaseFunction(lambda q, p: q[0] + p[0] ** 2, 1)
    lifted = lift_last(base, 2)
    x = PhasePoint((9.0, 0.4), (7.0, 1.5))
    assert lifted(x) == pytest.approx(0.4 + 2.25)
    with pytest.raises(ValueError):
        lift_last(lifted, 1)
    with pytest.raises(ValueError):
        poisson_bracket(base, lifted, x)


def test_rule_calls_per_partials_at():
    # every leaf takes one evaluation for every direction (and, on array
    # leaves, every point)
    calls = []

    def rule(q, p):
        calls.append(1)
        return dm.exp(q[0] * p[1]) + q[1] * p[0] * p[0]

    f = PhaseFunction(rule, 2)
    z = np.array([[0.5, 0.7, 1.5, -0.2], [1.1, 0.3, -0.4, 0.9], [0.8, 1.9, 0.2, 0.6]])
    per_point = [partials_at(f, tuple(row[:2]), tuple(row[2:])) for row in z.tolist()]
    assert len(calls) == len(z)
    calls.clear()
    value, dq, dp = partials_at(f, *columns(z))
    assert len(calls) == 1
    assert value.tolist() == [v for v, _, _ in per_point]
    assert [d.tolist() for d in dq + dp] == [[fq[s] for _, fq, _ in per_point] for s in range(2)] + [
        [fp[s] for _, _, fp in per_point] for s in range(2)]
    outer = dm.new_tag()
    for q, p in [((dm.Jet([0.5, 1.0]), dm.Jet([0.7, 0.0])), (dm.Jet([1.5, 0.0]), dm.Jet([-0.2, 1.0]))),
                 ((dm.Dual(0.5, 1.0, outer), 0.7), (1.5, -0.2)),  # one enclosing Dual is enough
                 ((0.5, 0.7), (1.5, dm.Dual(-0.2, 1.0, outer))),
                 (dm.Tape().inputs((0.5, 0.7)), (1.5, -0.2))]:
        calls.clear()
        partials_at(f, q, p)
        assert len(calls) == 1
    g = PhaseFunction(lambda q, p: calls.append(1) or q[0] * p[0], 1)
    calls.clear()
    partials_at(g, (0.5,), (1.5,))
    assert len(calls) == 1


def test_array_leaves_give_array_partials_equal_to_the_float_partials():
    # the value and every array partial (abs's alone in q1) come back as plain
    # float64 arrays; a constant or absent partial stays a float; every entry
    # equals the float evaluation's at its point
    def rule(q, p):
        return (q[0] ** 3 * p[0] + dm.pow_(2.0 + q[0] * p[0], 1.5) + dm.exp(p[1])
                + abs(q[1] - 1.0) + 2.5 * q[2])

    f = PhaseFunction(rule, 3)
    z = np.array([[0.5, 0.7, 1.5, -0.2, 0.3, 0.1], [1.1, 1.3, -0.4, 0.9, 0.2, 0.4],
                  [0.8, 1.9, 0.2, 0.6, -0.5, 0.7]])
    value, dq, dp = partials_at(f, *columns(z))
    assert all(type(v) is np.ndarray for v in [value] + dq[:2] + dp[:2])
    assert (dq[2], dp[2]) == (2.5, 0.0)
    for i, row in enumerate(z.tolist()):
        ref_value, ref_dq, ref_dp = partials_at(f, tuple(row[:3]), tuple(row[3:]))
        got = [np.broadcast_to(v, len(z))[i] for v in [value] + dq + dp]
        assert [v.hex() for v in got] == [v.hex() for v in [ref_value] + ref_dq + ref_dp]


def _catalog_functions():
    """(label, f, q windows) for each catalog model's H and integrals and each base's L and G."""
    flags = {"k": "1", "alpha": 1.0, "beta": 2.0, "eta": 2.0, "psi0": 0.2, "m": 2, "n": 1,
             "d": 2.0, "no_integral": False}
    out = []
    for name, build in catalog.BASES.items():
        base = build(**{a: flags[a] for a in inspect.signature(build).parameters})
        out += [(f"base {name} {fname}", f, (base.psi_window,))
                for fname, f in (("L", base.L), ("G", base.G))]
    for name, build in catalog.MODELS.items():
        params = inspect.signature(build).parameters
        for omega in ((0.0, 0.3) if "omega" in params else (None,)):
            model = build(**{a: (omega if a == "omega" else flags[a]) for a in params})
            windows = model.q_windows or ((0.3, 2.0),) * model.H.dof
            out += [(f"model {name} Omega={omega} {fname}", f, windows)
                    for fname, f in [("H", model.H)] + list(model.known_integrals)]
    return out


CATALOG_FUNCTIONS = _catalog_functions()


@pytest.mark.parametrize("label,f,windows", CATALOG_FUNCTIONS, ids=[c[0] for c in CATALOG_FUNCTIONS])
def test_partials_at_equals_the_seeded_loop_on_every_leaf(label, f, windows):
    # one evaluation over every direction gives each seeded partial bit for bit,
    # on plain floats, on array leaves, on the Duals of an enclosing evaluation
    # and on Jets (there only because a Dual keeps a product's operands in the
    # order written)
    d = f.dof
    z = sample_points(3, 24, d, q_ranges=windows)
    blocks = [columns(z)]
    outer = dm.new_tag()
    for x in phase_points(z):
        v = x.q + x.p
        dual = [dm.Dual(c, 0.7 - 0.3 * i, outer) for i, c in enumerate(v)]
        jet = [dm.Jet([c, 0.5 - 0.2 * i, 0.0]) for i, c in enumerate(v)]
        blocks += [(x.q, x.p), (tuple(dual[:d]), tuple(dual[d:])), (tuple(jet[:d]), tuple(jet[d:]))]
    for q, p in blocks:
        assert leaf_bits(partials_at(f, q, p)) == leaf_bits(seeded_partials(f, q, p))


def test_ignored_slot_gets_positive_zero_on_array_leaves():
    # a slot the function never reads is a structural zero, never -(0.0)
    z = np.array([[0.5, 0.7, 1.5, -0.2], [1.1, 0.3, -0.4, 0.9]])
    for f in (PhaseFunction(lambda q, p: -(q[0] * p[0]), 2),
              PhaseFunction(lambda q, p: -q[0] - 2.0 * p[0], 2),
              PhaseFunction(lambda q, p: 0.0 * (q[0] - p[0]), 2)):
        _, dq, dp = partials_at(f, *columns(z))
        for d in (dq[1], dp[1]):
            assert d == 0.0 and math.copysign(1.0, d) == 1.0
        # the seeded float evaluations agree
        for row in z.tolist():
            _, fq, fp = partials_at(f, tuple(row[:2]), tuple(row[2:]))
            assert math.copysign(1.0, fq[1]) == math.copysign(1.0, fp[1]) == 1.0
    const = PhaseFunction(lambda q, p: 2.5, 2)
    assert partials_at(const, *columns(z)) == (2.5, [0.0, 0.0], [0.0, 0.0])


# -- compiled float partials ----------------------------------------------------

K_VALUES = ["1", "1/2", "2", "5/3"]
# (label, H, the box its points are drawn from: q ranges then p ranges)
WEDGE_BOX = [(0.3, 2.0), (0.3, 2.0), (-3.0, 3.0), (-3.0, 3.0)]
POLAR_BOX = [(0.3, 2.0), (-1.0, 1.0), (-3.0, 3.0), (-3.0, 3.0)]


def _flow_hamiltonians():
    out = []
    for k in K_VALUES:
        for omega in (0.0, 0.3):
            for chart, box in (("null", WEDGE_BOX), ("pseudo-polar", POLAR_BOX)):
                H, _, _ = catalog.FLOWS["minkowski"](k, 1.0, 2.0, omega, False, chart, 0.05)
                out.append((f"flow k={k} Omega={omega} {chart}", H, box))
    H, _, _ = catalog.FLOWS["free"]()
    out.append(("flow free", H, POLAR_BOX))
    return out


def _model_hamiltonians():
    flags = {"k": "1", "alpha": 1.0, "beta": 2.0, "eta": 2.0, "psi0": 0.2, "m": 2, "n": 1,
             "d": 2.0, "no_integral": False}
    out = []
    for name, build in catalog.MODELS.items():
        params = inspect.signature(build).parameters
        for omega in ((0.0, 0.3) if "omega" in params else (None,)):
            model = build(**{a: (omega if a == "omega" else flags[a]) for a in params})
            if model.H.dof == 2:
                box = list(model.q_windows) + [(-3.0, 3.0)] * 2
                out.append((f"model {name} Omega={omega}", model.H, box))
    return out


COMPILED_CASES = _flow_hamiltonians() + _model_hamiltonians()


@pytest.fixture
def fallbacks(monkeypatch):
    """The calls made to phase.partials_at, one list entry each: a compiled program's
    fallbacks, and compile_partials' own traces when it compiles one."""
    calls = []
    monkeypatch.setattr(phase, "partials_at", lambda *a: calls.append(a) or partials_at(*a))
    return calls


@pytest.mark.parametrize("label,H,box", COMPILED_CASES, ids=[c[0] for c in COMPILED_CASES])
def test_compiled_partials_equal_partials_at_hypothesis(fallbacks, label, H, box):
    # compiled at one in-domain point and run there and at 100 uniform others,
    # the programs themselves return partials_at's (value, dq, dp), the sign of every
    # zero included; so many points because pow(x, 2) and x * x differ on about
    # 1 in 1200 inputs, and an emitter that confused them must fail here
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=20, deadline=None)
    @hyp.given(st.tuples(*[st.floats(lo, hi) for lo, hi in box]), st.integers(0, 2**32))
    def compiled_equals_seeded(z0, seed):
        program = compile_partials(H, z0[:2], z0[2:])
        rng = random.Random(seed)
        for z in [z0] + [tuple(rng.uniform(lo, hi) for lo, hi in box) for _ in range(100)]:
            fallbacks.clear()
            got = repr(program(*z))
            assert not fallbacks
            assert got == repr(partials_at(H, z[:2], z[2:]))

    compiled_equals_seeded()


def test_compiled_partials_leave_the_gamma_pole_to_partials_at(fallbacks):
    H, _, _ = catalog.FLOWS["minkowski"]("1", 1.0, 2.0, 0.0, False, "pseudo-polar", 0.05)
    pole, regular = ((1e-160, 0.1), (3.2, 0.5)), ((1.0, 0.1), (3.2, 0.5))
    for program in (compile_partials(H, *pole), compile_partials(H, *regular)):
        fallbacks.clear()
        with pytest.raises(GammaPoleError, match="singular at u=1e-160"):
            program(*pole[0], *pole[1])
        assert len(fallbacks) == 1
        assert repr(program(*regular[0], *regular[1])) == repr(partials_at(H, *regular))
    with pytest.raises(GammaPoleError, match="singular at u=1e-160"):
        partials_at(H, *pole)


def test_compiled_partials_leave_the_wedge_to_partials_at(fallbacks):
    H, _, _ = catalog.FLOWS["minkowski"]("1", 1.0, 2.0, 0.3, False, "null", 0.05)
    outside, inside = ((0.7, -0.2), (2.97, 1.56)), ((0.7, 0.7), (2.97, 1.56))
    wedge = "Minkowski family is defined on the wedge q1, q2 > 0"
    for program in (compile_partials(H, *outside), compile_partials(H, *inside)):
        fallbacks.clear()
        with pytest.raises(ValueError, match=wedge):
            program(*outside[0], *outside[1])
        assert len(fallbacks) == 1
        assert repr(program(*inside[0], *inside[1])) == repr(partials_at(H, *inside))
    with pytest.raises(ValueError, match=wedge):
        partials_at(H, *outside)


OUTER = dm.Dual(2.0, 1.0, dm.new_tag())


@pytest.mark.parametrize("rule, left", [
    (lambda q, p: q[0] * p[0] if primal(q[1]) else p[0], 5),  # bool
    (lambda q, p: math.exp(float(primal(q[1]))) * p[0], 5),  # float
    (lambda q, p: {primal(q[1]): p[0]}[primal(q[1])], 5),  # hash
    # a Dual of an enclosing evaluation in the value, d/dq2 and d/dp1; the other
    # two partials are the constant 0.0, which compiles
    (lambda q, p: OUTER * q[1] * p[0], 3),
])
def test_untraceable_rules_are_left_to_partials_at(fallbacks, rule, left):
    # checked away from the trace point too, where a constant baked in at it
    # would give another answer; a rule that cannot be traced is its own program
    f = PhaseFunction(rule, 2)
    program = compile_partials(f, (0.5, 0.7), (1.5, -0.2))
    assert compile_rule(rule, (0.5, 0.7), (1.5, -0.2)) is rule
    assert sum(p.__code__.co_filename != "<compile_rule>" for p in program.programs) == left
    for z in ((0.5, 0.7, 1.5, -0.2), (0.9, 1.3, -0.4, 0.6)):
        fallbacks.clear()
        assert repr(program(*z)) == repr(partials_at(f, z[:2], z[2:]))
        assert len(fallbacks) == left


def test_equality_tests_compile_to_guards(fallbacks):
    # == on a traced value is a guard, never the identity test, which would
    # silently take the other branch
    f = PhaseFunction(lambda q, p: q[0] * p[0] if primal(q[1]) == 1.0 else q[0] - p[0], 2)
    at_one = compile_partials(f, (0.5, 1.0), (1.5, -0.2))
    elsewhere = compile_partials(f, (0.5, 2.0), (1.5, -0.2))
    for program, served, refused in ((at_one, (1.0,), (2.0, 0.7)), (elsewhere, (2.0, 0.7), (1.0,))):
        for q1 in served + refused:
            z = (0.8, q1, 1.3, 0.4)
            fallbacks.clear()
            assert repr(program(*z)) == repr(partials_at(f, z[:2], z[2:]))
            assert len(fallbacks) == 5 * (q1 in refused)  # each of the five programs falls back


def test_compiled_partials_raise_as_partials_at_does(fallbacks):
    # every operation is emitted, even one whose result nothing reads, so where
    # one raises, the program raises the exception partials_at raises, without calling it
    f = PhaseFunction(lambda q, p: (dm.log(q[0]), q[1] * p[1])[1], 2)
    program = compile_partials(f, (0.5, 0.7), (1.5, -0.2))
    fallbacks.clear()  # compile_partials' own trace
    assert repr(program(0.5, 0.7, 1.5, -0.2)) == repr(partials_at(f, (0.5, 0.7), (1.5, -0.2)))
    assert not fallbacks
    for u in (-0.5, 0.0):
        with pytest.raises(ValueError, match="math domain error"):
            partials_at(f, (u, 0.7), (1.5, -0.2))
        fallbacks.clear()
        with pytest.raises(ValueError, match="math domain error"):
            program(u, 0.7, 1.5, -0.2)
        assert not fallbacks


def test_a_repeat_that_raises_at_a_new_point_raises_at_its_first_copy(fallbacks):
    # log(q) runs twice, with a division by p + 2 between its copies: the program
    # writes it once, at its first place, so where q < 0 and p = -2 it raises
    # partials_at's ValueError, and not the division's ZeroDivisionError
    def rule(q, p):
        a, b, c = dm.log(q[0]), p[0] / (p[0] + 2.0), dm.log(q[0])
        return a * p[0] + b + c

    f = PhaseFunction(rule, 1)
    program = compile_partials(f, (0.5,), (1.5,))
    fallbacks.clear()  # compile_partials' own trace
    assert repr(program(0.7, -1.0)) == repr(partials_at(f, (0.7,), (-1.0,)))
    errors = []
    for evaluate in (lambda: partials_at(f, (-0.5,), (-2.0,)), lambda: program(-0.5, -2.0)):
        with pytest.raises(Exception) as err:
            evaluate()
        errors.append((type(err.value), str(err.value)))
    assert errors == [(ValueError, "math domain error")] * 2
    assert not fallbacks  # the program raised by itself


def test_where_two_operations_raise_both_raise_the_first(fallbacks):
    # at q = (0, 0) the partial of q[1] ** 0.5 needs 0.0 ** -0.5 (a domain
    # error), and the one of sqrt(q[0]) divides by zero; both run the first
    f = PhaseFunction(lambda q, p: q[1] ** 0.5 + dm.sqrt(q[0]) + p[0], 2)
    program = compile_partials(f, (1.0, 1.0), (1.0, 1.0))
    fallbacks.clear()  # compile_partials' own trace
    with pytest.raises(ValueError, match="math domain error"):
        program(0.0, 0.0, 1.0, 1.0)
    assert not fallbacks
    with pytest.raises(ValueError, match="math domain error"):
        partials_at(f, (0.0, 0.0), (1.0, 1.0))


@pytest.mark.parametrize("rule", [
    lambda q, p: q[0] * p[0] if primal(q[0]) else p[0],  # bool
    lambda q, p: math.exp(float(primal(q[0]))) * p[0],  # float
    lambda q, p: {primal(q[0]): p[0]}[primal(q[0])],  # hash
    lambda q, p: OUTER * q[0] * p[0],  # a Dual of an enclosing evaluation in every output
])
def test_untraceable_rules_have_no_flow_program(rule):
    # a rule that reads the L-flow's jets cannot be compiled either
    def run(q, p):
        return flow_jets_by_evaluation(PhaseFunction(rule, 1), q[0], p[0], 3)[0].c[1]

    assert compile_rule(run, (0.5,), (-0.2,)) is run


def test_compiled_partials_source(monkeypatch):
    # the program unpacks (q, p) as the rule takes them; a guard returns the rule's
    # answer; math functions are passed by reference under sequential names,
    # negative literals are parenthesised
    sources = []
    monkeypatch.setattr(dm, "compile", lambda source, *a: sources.append(source) or compile(source, *a),
                        raising=False)
    f = PhaseFunction(lambda q, p: dm.sin(q[0]) * p[1] * -2.0 if primal(q[1]) > 0.0 else p[0], 2)
    program = compile_rule(lambda q, p: partials_at(f, q, p)[1][0], (0.5, 0.7), (1.5, -0.2))
    assert sources == ["""def rule(q, p):
    t0, t1, = q
    t2, t3, = p
    if not (t1 > 0.0): return fallback(t0, t1, t2, t3)
    t4 = c0(t0)
    t5 = c1(t0)
    t6 = t4 * t3
    t7 = t5 * t3
    t8 = t6 * (-2.0)
    t9 = t4 * (-2.0)
    t10 = t7 * (-2.0)
    return t10
"""]
    assert (program.__globals__["c0"], program.__globals__["c1"]) == (math.sin, math.cos)
