import math
import operator
import random
import struct

import numpy as np
import pytest

from extham import duals as dm
from extham.catalog import exp_base
from extham.duals import Dual, Jet, Tangent, derivative, primal, taylor
from extham.extension import Extension, ExtensionSpec, bracket_scale
from extham.phase import (
    PhaseFunction,
    PhasePoint,
    compile_partials,
    hamiltonian_vector_field,
    partials_at,
    poisson_bracket,
)
from extham.sampling import sample_points
from extham.tagged_trig import GammaProfile

from references import columns, leaf_bits, leaf_values, nth_derivative, phase_points


def test_first_derivatives_match_hand_results():
    assert derivative(lambda x: x * x, 3.0) == pytest.approx(6.0, abs=1e-14)
    assert derivative(lambda x: dm.exp(2.0 * x), 0.5) == pytest.approx(2 * math.e, rel=1e-14)
    assert derivative(lambda x: dm.sin(x) / x, 1.3) == pytest.approx(
        (math.cos(1.3) * 1.3 - math.sin(1.3)) / 1.3**2, rel=1e-14
    )
    assert derivative(lambda x: x**-2.5, 1.7) == pytest.approx(-2.5 * 1.7**-3.5, rel=1e-14)


def test_derivatives_vs_central_differences():
    funcs = [
        lambda x: dm.exp(x) * dm.sin(3.0 * x) + x**3,
        lambda x: dm.tanh(x) / (1.0 + x * x),
        lambda x: dm.log(x) * dm.cosh(x),
        lambda x: dm.sqrt(x) * dm.tan(x / 4.0),
    ]
    h = 1e-5
    for f in funcs:
        for x0 in (0.4, 1.1, 1.9):
            fd = (primal(f(x0 + h)) - primal(f(x0 - h))) / (2 * h)
            assert derivative(f, x0) == pytest.approx(fd, abs=1e-6)


def test_nested_derivatives_no_perturbation_confusion():
    # d/dx [x * d/dy (x*y) at y=2] = d/dx [x * x] = 2x; naive duals collapse this.
    def f(x):
        inner = derivative(lambda y: x * y, 2.0)
        return x * inner

    assert derivative(f, 3.0) == pytest.approx(6.0, abs=1e-14)


def test_higher_order_derivatives():
    # f = exp(2x): n-th derivative is 2^n exp(2x)
    for n in range(5):
        got = nth_derivative(lambda x: dm.exp(2.0 * x), 0.3, n)
        assert primal(got) == pytest.approx(2.0**n * math.exp(0.6), rel=1e-12)
    # cubic: third derivative constant, fourth zero
    f = lambda x: x**3
    assert nth_derivative(f, 1.23, 3) == pytest.approx(6.0, abs=1e-12)
    assert nth_derivative(f, 1.23, 4) == pytest.approx(0.0, abs=1e-12)


def test_taylor_derivatives_from_one_jet():
    # f = exp(2x): the k-th derivative is 2^k exp(2x)
    for k, d in enumerate(taylor(lambda x: dm.exp(2.0 * x), 0.3, 4)):
        assert d == pytest.approx(2.0**k * math.exp(0.6), rel=1e-13)
    assert taylor(lambda x: x**3, 1.23, 4)[3:] == [pytest.approx(6.0, abs=1e-12), 0.0]
    f = lambda x: dm.sin(x) * dm.exp(x) / (1.0 + x * x)
    for x0 in (0.35, 0.9, 1.3):
        ref = [primal(nth_derivative(f, x0, k)) for k in range(4)]
        assert taylor(f, x0, 3) == pytest.approx(ref, rel=1e-13, abs=1e-13)
    # a float64 array gives each entry's float result
    col = np.array([0.35, 0.9, 1.3])
    assert [d.tolist() for d in taylor(f, col, 2)] == [
        [taylor(f, x, 2)[k] for x in (0.35, 0.9, 1.3)] for k in range(3)]


def test_integer_powers_of_a_jet_multiply():
    # pow_ and ** share Jet.__pow__: an integer power of a series through zero exists,
    # where the non-integer recurrence would divide by the zero constant term
    assert taylor(lambda x: dm.pow_(x, 3), 0.0, 3) == [0.0, 0.0, 0.0, 6.0]
    # the recursive K runs L on a Jet whose p_psi has a zero constant term
    base = exp_base(0.7, 1.3)
    V = base.V.rule
    base.L.rule = lambda q, p: 0.5 * p[0] ** 2 + V(q, p)
    e = Extension(ExtensionSpec(4, 1, base.c, 0.0, 0.0, GammaProfile.from_c_C(base.c, 0.0)), base)
    x = PhasePoint((0.8, 0.9), (0.5, 0.0))
    closed = e.k_closed()(x)
    assert closed == pytest.approx(-24.3127, rel=1e-5)
    assert e.k_recursive()(x) == pytest.approx(closed, rel=1e-12)


def test_a_constant_base_to_a_jet_power():
    # coefficient 0 is the float power, the rest follow exp's recurrence on x log 2
    lb = math.log(2.0)
    got = taylor(lambda x: 2.0 ** x, 0.5, 4)
    assert got[0] == 2.0**0.5
    assert got == pytest.approx([2.0**0.5 * lb**k for k in range(5)], rel=1e-14)
    # under a Dual (the Jet's own __rpow__ now takes the Dual's value) and over Duals
    y = derivative(lambda x: 2.0 ** x, Jet([0.5, 1.0, 0.0]))
    assert y.c == pytest.approx([2.0**0.5 * lb ** (k + 1) / math.factorial(k) for k in range(3)],
                                rel=1e-14)
    tag = dm.new_tag()
    z = 2.0 ** Jet([Dual(0.5, 1.0, tag), 1.0])
    assert (z.c[0].val, z.c[0].dot) == (2.0**0.5, pytest.approx(2.0**0.5 * lb, rel=1e-15))
    with pytest.raises(ValueError, match="math domain error"):
        (-2.0) ** Jet([0.5, 1.0])


# values of one leaf, one per Jet rule: every operand kind of + - * /, the
# integer, zero, negative and non-integer powers, a constant base, and each
# math function; sqrt and log need a positive constant term
SERIES_FUNCS = [
    lambda x: (x * x, 2.0 * x, x * 2.0, x - 0.5, 1.5 + x, x + 1.5, -x, 2.0 - x, x - x),
    lambda x: (x / 3.0, 1.0 / (x * x + 1.0), (x - 3.0) / (x * x + 2.0)),
    lambda x: (dm.exp(x), dm.log(x * x + 1.0), dm.sqrt(x * x + 4.0)),
    lambda x: (dm.sin(x), dm.cos(x), dm.tan(x)),
    lambda x: (dm.sinh(x), dm.cosh(x), dm.tanh(x)),
]


def _series_program(f, x0):
    """f as a series program: series(a, order) gives the coefficients 0..order-1 of each
    value f returns, at the series a, taking one coefficient of a per order."""
    tape = dm.Tape()
    (x,) = tape.inputs((x0,))
    ys = ", ".join(map(tape.atom, f(x)))
    head, body = tape.series()
    lines = ["t0 = []"] + head + ["for k in range(order):", "    t0.append(a[k])"]
    lines += [f"    {line}" for line in body]
    lines.append(f"return [{ys}]")
    tape.namespace["fallback"] = lambda *args: None  # a flipped guard returns None
    return dm.define("series", ["a", "order"], lines, tape.namespace, "<test>")


@pytest.mark.parametrize("i", range(len(SERIES_FUNCS)))
def test_series_rules_equal_the_jet_methods_bit_for_bit(i):
    f = SERIES_FUNCS[i]
    program = _series_program(f, 0.7)
    rng = random.Random(i)
    tag = dm.new_tag()
    for _ in range(20):
        a = [rng.uniform(-1.0, 1.0) for _ in range(9)]
        a[rng.randrange(1, 9)] = rng.choice([0.0, -0.0])  # signed zeros flow through
        for leaves in (a, [Dual(v, 0.5 * v, tag) for v in a]):
            for order in range(10):
                got = program(leaves, order)
                want = [y.c for y in f(Jet(leaves[:order]))] if order else [[]] * len(got)
                assert leaf_bits(got) == leaf_bits(want)
    # a comparison the evaluation branched on is a guard at k = 0
    program = _series_program(lambda x: (x if primal(x) < 1.0 else -x,), 0.7)
    assert program([0.5, 1.0], 2) == [[0.5, 1.0]] and program([1.5, 1.0], 2) is None


def test_an_operation_without_a_taylor_rule_is_refused():
    # a Jet has power rules, but the series writer has none: every power is refused
    powers = (lambda x: x**3, lambda x: x**0, lambda x: x**1, lambda x: x**2.0,
              lambda x: dm.pow_(x * x + 1.0, -2), lambda x: dm.pow_(x * x + 1.0, 0.5),
              lambda x: 0.25**x, lambda x: 1.5**x)
    for f in (abs, lambda x: x**x, lambda x: dm.pow_(x, x)) + powers:
        tape = dm.Tape()
        (x,) = tape.inputs((0.7,))
        f(x)
        with pytest.raises(TypeError, match="no series rule for"):
            tape.series()


# -- the seam: one dispatch for every math function --------------------------

UNARY = ["exp", "log", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "tanh"]
# the Dual tangent of each function as its own hand-written branch computed it
HAND_TANGENT = {
    "exp": lambda v, dx: dm.exp(v) * dx,
    "log": lambda v, dx: dx / v,
    "sqrt": lambda v, dx: dx / (dm.sqrt(v) + dm.sqrt(v)),
    "sin": lambda v, dx: dm.cos(v) * dx,
    "cos": lambda v, dx: -dm.sin(v) * dx,
    "tan": lambda v, dx: (1.0 + dm.tan(v) * dm.tan(v)) * dx,
    "sinh": lambda v, dx: dm.cosh(v) * dx,
    "cosh": lambda v, dx: dm.sinh(v) * dx,
    "tanh": lambda v, dx: (1.0 - dm.tanh(v) * dm.tanh(v)) * dx,
}


@pytest.mark.parametrize("name", UNARY)
def test_seam_equals_hand_written_rules(name):
    f, libm = getattr(dm, name), getattr(math, name)
    xs = [0.35, 0.9, 1.3]
    col = np.array(xs)
    assert [f(x) for x in xs] == [libm(x) for x in xs]
    assert type(f(col)) is np.ndarray and f(col).tolist() == [libm(x) for x in xs]
    inner = Dual(0.9, 0.7, dm.new_tag())
    jet = Jet([0.9, 1.0, 0.0, 0.0])
    jet_of_duals = Jet([Dual(0.9, 1.0, dm.new_tag()), 1.0, 0.0])
    # a jet's value coefficient is the function itself, on Dual coefficients too
    assert f(jet).c[0] == libm(0.9)
    assert leaf_values(f(jet_of_duals).c[0]) == leaf_values(f(jet_of_duals.c[0]))
    assert len(f(jet).c) == 4 and len(f(jet_of_duals).c) == 3
    # a Dual over every leaf: value f(val), tangent by the hand-written formula
    tag = dm.new_tag()
    for v in (0.9, col, inner, jet, jet_of_duals, Dual(col, 0.5, inner.tag)):
        out = f(Dual(v, 1.3, tag))
        assert isinstance(out, Dual) and out.tag == tag
        assert leaf_values(out.val) == leaf_values(f(v))
        assert leaf_values(out.dot) == leaf_values(HAND_TANGENT[name](v, 1.3))
    nested = f(inner)
    assert (nested.val, nested.dot) == (libm(0.9), HAND_TANGENT[name](0.9, 0.7))


def test_mixed_depth_arithmetic_and_comparisons():
    tag = dm.new_tag()
    x = Dual(1.5, 1.0, tag)
    y = 2.0 + x - 0.5
    assert primal(y) == 3.0
    assert y.dot == 1.0
    assert (x < 2.0) and (x > 1.0) and abs(-x) >= 1.0
    z = 1.0 / x
    assert z.val == pytest.approx(1 / 1.5)
    assert z.dot == pytest.approx(-1 / 1.5**2)


def test_float_cast_is_refused():
    tag = dm.new_tag()
    with pytest.raises(TypeError):
        float(Dual(1.0, 1.0, tag))


# -- Jet leaf --------------------------------------------------------------

JET_FUNCS = [
    ("exp", dm.exp),
    ("log", dm.log),
    ("sqrt", dm.sqrt),
    ("sin", dm.sin),
    ("cos", dm.cos),
    ("tan", dm.tan),
    ("sinh", dm.sinh),
    ("cosh", dm.cosh),
    ("tanh", dm.tanh),
    ("pow_", lambda x: dm.pow_(x, -1.7)),
    ("int powers", lambda x: dm.pow_(x, 3) - 2.0 * dm.pow_(x, -2)),
    ("division", lambda x: (3.0 - x) / (x * x + 0.5)),
    ("composite", lambda x: dm.exp(dm.sin(x)) * dm.log(1.0 + x) ** 2),
]
JET_ORDER = 6


def _series(x0):
    """The jet of x0 + t, known through t^JET_ORDER."""
    return Jet([x0, 1.0] + [0.0] * (JET_ORDER - 1))


def _assert_taylor_coefficients(f, x0):
    got = f(_series(x0)).c
    assert len(got) == JET_ORDER + 1
    for k, ck in enumerate(got):
        ref = primal(nth_derivative(f, x0, k)) / math.factorial(k)
        assert abs(ck - ref) <= 1e-11 * (1.0 + abs(ref)), (k, ck, ref)


@pytest.mark.parametrize("name,f", JET_FUNCS)
def test_jet_coefficients_match_nested_duals(name, f):
    for x0 in (0.35, 0.9, 1.3):
        _assert_taylor_coefficients(f, x0)


@pytest.mark.parametrize("name,f", JET_FUNCS)
def test_jet_over_dual_coefficients(name, f):
    # coefficients that are Duals carry d/dx0 of every Taylor coefficient
    x0 = 0.8
    tag = dm.new_tag()
    got = f(Jet([Dual(x0, 1.0, tag), 1.0] + [0.0] * (JET_ORDER - 1))).c
    for k, ck in enumerate(got):
        value = primal(nth_derivative(f, x0, k)) / math.factorial(k)
        slope = primal(nth_derivative(f, x0, k + 1)) / math.factorial(k)
        assert abs(primal(ck) - value) <= 1e-11 * (1.0 + abs(value))
        assert abs(dm.tangent_part(ck, tag) - slope) <= 1e-10 * (1.0 + abs(slope))


def test_jet_truncation_and_shift():
    a = Jet([1.0, 2.0, 3.0])
    b = Jet([4.0, 5.0])
    assert (a * b).c == [4.0, 13.0]  # only t^0 and t^1 are known
    assert (a + 1.0).c == [2.0, 2.0, 3.0]
    assert (2.0 - a).c == [1.0, -2.0, -3.0]
    assert a.deriv().c == [2.0, 6.0]
    assert primal(Jet([Dual(1.5, 1.0, dm.new_tag())])) == 1.5


def test_dual_wraps_jet():
    j = _series(0.5)
    d = Dual(2.0, 1.0, dm.new_tag())
    for out in (j * d, d * j, j + d, j - d, j / d, d / j):
        assert isinstance(out, Dual) and isinstance(out.val, Jet)


def _coefficient_slope(x, y0, k):
    """d/dy of [sin(x + t) exp((x + t) y) + (x + t)/y]_k at y0; x may be a Dual.

    The jet stands on the left of each operation with the y-Dual, so the
    Dual must decline to be absorbed and wrap the jet instead.
    """
    J = Jet([x, 1.0] + [0.0] * k)
    out = derivative(lambda y: dm.sin(J) * dm.exp(J * y) + J / y, y0)
    return out.c[k]


def test_dual_outside_jet_of_lower_tag_duals_no_perturbation_confusion():
    # the outer y-Dual is seeded after the x-Duals inside the jet's
    # coefficients; d/dx of the result must match central differences
    h = 1e-5
    for x0, y0, k in [(0.4, 0.7, 2), (1.1, -0.3, 3), (0.9, 1.2, 4)]:
        ad = derivative(lambda x: _coefficient_slope(x, y0, k), x0)
        fd = (_coefficient_slope(x0 + h, y0, k) - _coefficient_slope(x0 - h, y0, k)) / (2 * h)
        assert ad == pytest.approx(fd, rel=1e-7, abs=1e-8)


@pytest.mark.parametrize("m,n", [(3, 2), (5, 3), (8, 3)])
def test_bracket_through_duals_over_jets(m, n):
    base = exp_base(0.7, 1.3)
    prof = GammaProfile.from_c_C(-4.0, 0.0)
    e = Extension(ExtensionSpec(m, n, -4.0, 0.0, 0.0, prof), base)
    H, kr, kc = e.hamiltonian(), e.k_recursive(), e.k_closed()
    for x in phase_points(sample_points(5, 60, 2)):
        diff = poisson_bracket(H, kr, x) - poisson_bracket(H, kc, x)
        assert abs(diff) <= 1e-10 * bracket_scale(H, kc, x)


def test_jet_properties_hypothesis():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(st.sampled_from(JET_FUNCS), st.floats(0.2, 1.2))
    def coefficients(named, x0):
        _assert_taylor_coefficients(named[1], x0)

    @hyp.settings(max_examples=30, deadline=None)
    @hyp.given(st.floats(0.2, 1.5), st.floats(0.3, 1.5), st.integers(1, 4))
    def no_confusion(x0, y0, k):
        h = 1e-5
        ad = derivative(lambda x: _coefficient_slope(x, y0, k), x0)
        fd = (_coefficient_slope(x0 + h, y0, k) - _coefficient_slope(x0 - h, y0, k)) / (2 * h)
        assert abs(ad - fd) <= 1e-6 * (1.0 + abs(fd))

    coefficients()
    no_confusion()


# -- array leaf ------------------------------------------------------------

BATCH_XS = [0.35 + 0.0137 * i for i in range(80)]


@pytest.mark.parametrize("name,f", JET_FUNCS)
def test_batch_equals_float_evaluation(name, f):
    # values and derivatives over a float64 array equal the float ones bit for bit
    got = f(np.array(BATCH_XS))
    assert type(got) is np.ndarray
    assert got.tolist() == [f(x) for x in BATCH_XS]
    slopes = derivative(f, np.array(BATCH_XS))
    assert np.broadcast_to(slopes, len(BATCH_XS)).tolist() == [derivative(f, x) for x in BATCH_XS]


def test_arrays_defer_to_duals():
    d = Dual(1.5, 1.0, dm.new_tag())
    outs = (np.array([1.0, 2.0]) + d, np.float64(2.0) * d, np.ones(2) / d,
            np.float64(3.0) - d, np.array([1.0, 2.0]) * d, np.array([2.0, 3.0]) ** d)
    for out in outs:
        assert isinstance(out, Dual)
    assert outs[0].val.tolist() == [2.5, 3.5]
    assert outs[1].val == 3.0 and outs[1].dot == 2.0
    assert outs[-1].dot.tolist() == [(2.0**d).dot, (3.0**d).dot]


def test_batch_abs_and_guards():
    tag = dm.new_tag()
    a = abs(Dual(np.array([-1.5, 0.0, 2.0]), 1.0, tag))
    assert a.val.tolist() == [1.5, 0.0, 2.0]
    assert a.dot.tolist() == [-1.0, 1.0, 1.0]
    assert dm.any_true(np.array([0.5, -0.1]) <= 0.0)
    assert not dm.any_true(np.array([0.5, 0.1]) <= 0.0)
    assert dm.any_true(-0.1 <= 0.0) is True and dm.any_true(0.1 <= 0.0) is False


def test_batch_power_is_python_power():
    # numpy's power differs from libm's in the last bit on a share of inputs
    xs = [0.3 + 0.0123 * i for i in range(200)]
    for r in (2, 3, 7, -2, 0.5, -1.7):
        assert dm.pow_(np.array(xs), r).tolist() == [math.pow(x, r) for x in xs] == [
            x**r for x in xs]
    assert dm.pow_(2.0, np.array(xs)).tolist() == [2.0**x for x in xs]
    with pytest.raises(ValueError, match="math domain error"):
        dm.pow_(np.array([1.0, -2.0]), 0.5)
    with pytest.raises(OverflowError):
        dm.pow_(np.array([1.0, 1e200]), 3.0)
    # off the real domain pow_ raises, where Python's own ** makes a complex or
    # divides by zero
    for base, r in ((np.array([4.0, -8.0]), 1 / 3), (np.array([0.0]), -1.0),
                    (-8.0, np.array([1.0, 1 / 3]))):
        with pytest.raises(ValueError, match="math domain error"):
            dm.pow_(base, r)


def test_a_constant_base_to_a_dual_power_rounds_as_the_float_power():
    # the value is the leaf's own b ** x: exp(x log b) differs from it in the last
    # bit on about 6 in 10 of these draws
    rng = random.Random(24)
    tag = dm.new_tag()
    for _ in range(10_000):
        x, b = rng.uniform(0.01, 5.0), rng.uniform(0.1, 9.0)
        y = b ** Dual(x, 1.0, tag)
        assert y.val == b**x
        assert y.dot == pytest.approx(b**x * math.log(b), rel=1e-15, abs=0.0)
    # on array, Trace and Dual values too
    xs = [0.3 + 0.0123 * i for i in range(200)]
    assert (2.0 ** Dual(np.array(xs), 1.0, tag)).val.tolist() == [2.0**x for x in xs]
    (t,) = dm.Tape().inputs((1.3,))
    assert (2.0 ** Dual(t, 1.0, tag)).val.v == 2.0**1.3
    assert (2.0 ** Dual(Dual(1.3, 1.0, tag), 1.0, dm.new_tag())).val.val == 2.0**1.3
    # so batched partials equal the pointwise ones, and the value the plain float one
    f = PhaseFunction(lambda q, p: 2.0 ** q[0], 1)
    value, dq, dp = partials_at(f, (np.array(xs),), (np.full(len(xs), 0.4),))
    per_point = [partials_at(f, (x,), (0.4,)) for x in xs]
    assert value.tolist() == [v for v, _, _ in per_point] == [2.0**x for x in xs]
    assert dq[0].tolist() == [fq[0] for _, fq, _ in per_point]
    assert [dp[0]] * len(xs) == [fp[0] for _, _, fp in per_point] == [0.0] * len(xs)
    with pytest.raises(ValueError, match="math domain error"):
        (-2.0) ** Dual(0.5, 1.0, tag)


def test_a_dual_over_a_plain_array_rounds_as_the_float_evaluations():
    # the sweep runs partials_at on plain arrays, whose own ** is numpy's power (it differs
    # from libm in the last bit on 5 of these 200 draws for base 2); a constant
    # base to a Dual power and abs go entry by entry and stay plain arrays
    xs = [0.3 + 0.0123 * i for i in range(200)] + [-0.7, -0.0, 0.0]
    tag = dm.new_tag()
    for b in (2.0, 0.7, 9.1):
        y = b ** Dual(np.array(xs), 1.0, tag)
        ref = [b ** Dual(x, 1.0, tag) for x in xs]
        assert type(y.val) is np.ndarray and type(y.dot) is np.ndarray
        assert y.val.tolist() == [r.val for r in ref] and y.dot.tolist() == [r.dot for r in ref]
    a = abs(Dual(np.array(xs), Tangent({0: 1.0, 1: np.array(xs)}), tag))
    ref = [abs(Dual(x, Tangent({0: 1.0, 1: x}), tag)) for x in xs]
    assert type(a.val) is type(a.dot.d[0]) is type(a.dot.d[1]) is np.ndarray
    assert [v.hex() for v in a.val.tolist()] == [r.val.hex() for r in ref]
    for j in (0, 1):
        assert [v.hex() for v in a.dot.d[j].tolist()] == [r.dot.d[j].hex() for r in ref]


def test_a_constant_base_to_a_power_over_a_plain_array_rounds_as_libm():
    # the constant term of a Jet power and the value of a Dual power are pow_(base, x)
    # entry by entry; numpy's own power differs from libm on 1061 of these entries
    rng = random.Random(0)
    xs = [rng.uniform(-3.0, 3.0) for _ in range(20_000)]
    ref = [1.7**x for x in xs]
    jet = 1.7 ** Jet([np.array(xs), 1.0, 0.0])
    dual = 1.7 ** Dual(np.array(xs), 1.0, dm.new_tag())
    assert type(jet.c[0]) is type(dual.val) is np.ndarray
    assert jet.c[0].tolist() == dual.val.tolist() == ref


def test_batch_no_perturbation_confusion_hypothesis():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def f(x, y0):
        # d/dx [x * d/dy (x exp(x y) + sin(x y)) at y0]: the inner tag is newer
        return x * derivative(lambda y: x * dm.exp(x * y) + dm.sin(y * x), y0)

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(st.lists(st.floats(0.2, 2.0), min_size=1, max_size=8), st.floats(0.3, 1.5))
    def batched_equals_per_entry(xs, y0):
        got = derivative(lambda x: f(x, y0), np.array(xs))
        assert np.broadcast_to(got, len(xs)).tolist() == [derivative(lambda x: f(x, y0), x)
                                                           for x in xs]

    batched_equals_per_entry()


def test_batch_partials_no_perturbation_confusion_hypothesis():
    # partials_at on array leaves carries every direction under one tag; an
    # inner derivative and an inner X_L are seeded later, on top of it. Each
    # partial must equal the per-entry seeded float one, bit for bit.
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    G = PhaseFunction(lambda q, p: dm.sin(q[1]) * p[1] ** 3 - q[0] / p[0], 2)
    L = PhaseFunction(lambda q, p: 0.5 * p[1] * p[1] + dm.exp(q[1]) * q[0], 2)
    xg = hamiltonian_vector_field(L, G)

    def rule(q, p):
        inner = derivative(lambda y: q[0] * dm.exp(q[1] * y) + dm.sin(y * p[0]), p[1])
        return q[0] * inner - p[1] / (1.0 + q[1] * q[1]) + xg.rule(q, p)

    f = PhaseFunction(rule, 2)

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(st.lists(st.tuples(*[st.floats(0.2, 2.0)] * 4), min_size=1, max_size=6))
    def batched_equals_per_entry(zs):
        value, dq, dp = partials_at(f, *columns(zs))
        ref = [partials_at(f, z[:2], z[2:]) for z in zs]
        assert value.tolist() == [v for v, _, _ in ref]
        got = [np.broadcast_to(d, len(zs)).tolist() for d in dq + dp]
        assert got == [[r[1 + s // 2][s % 2] for r in ref] for s in range(4)]

    batched_equals_per_entry()


def test_square_primal_is_pow_on_every_leaf():
    # pow(x, 2) and x * x differ in the last bit on a share of inputs (this
    # one under glibc 2.36); a Dual squares like its float or array value,
    # through pow, so a value's primal does not depend on which slot is seeded
    x = 1.6051211967710652
    col = np.array([x, 0.15170188774368704, 1.72970728398619])
    tag = dm.new_tag()
    # the tangent is still the product rule's x dx + dx x, bit for bit
    sq = Dual(x, 0.7, tag) ** 2
    assert sq.val == x**2 and sq.dot == x * 0.7 + 0.7 * x
    sq = Dual(col, 0.7, tag) ** 2
    assert sq.val.tolist() == dm.pow_(col, 2).tolist() == [v**2 for v in col.tolist()]
    assert sq.dot.tolist() == (col * 0.7 + 0.7 * col).tolist()
    assert dm.pow_(Dual(x, 0.7, tag), 2).val == x**2


def test_tangent_components_equal_seeded_evaluations():
    # direction j of a Tangent equals the evaluation seeded along j alone:
    # where one operand lacks j it acts as that evaluation's plain value,
    # so a - b gives -b_j and a / b gives __rtruediv__'s (-q b_j) / b
    tag = dm.new_tag()
    vals = np.array([1.5, -0.4, 0.7]), np.array([0.3, 2.2, -1.1])
    zero_in_b = np.array([1.0, 0.0, -2.0])  # -0.0 must come out where a lacks the direction
    a = Dual(vals[0], Tangent({0: 1.0, 2: np.array([0.5, 0.25, -2.0])}), tag)
    b = Dual(vals[1], Tangent({1: zero_in_b, 2: 3.0}), tag)
    seeds = {0: (1.0, None), 1: (None, zero_in_b), 2: (np.array([0.5, 0.25, -2.0]), 3.0)}
    ops = (operator.add, operator.sub, operator.mul, operator.truediv,
           lambda x, y: x**0 * y, lambda x, y: -x / 2.0 - 3.0 * y)
    for op in ops:
        out = op(a, b)
        for j, dots in seeds.items():
            t = dm.new_tag()
            x, y = (v if d is None else Dual(v, d, t) for v, d in zip(vals, dots))
            ref = op(x, y)
            assert out.val.tolist() == ref.val.tolist()
            got, want = (np.broadcast_to(v, 3).tolist() for v in (out.dot.d[j], ref.dot))
            assert got == want and [math.copysign(1.0, v) for v in got] == [
                math.copysign(1.0, v) for v in want]
    assert (a**0).dot.d == {0: 0.0, 2: 0.0}
    # a Jet or a Dual operand scales each component from the side it stands on;
    # a product of jets sums its terms in operand order ([1.21, 1.82, 1.4] times
    # [1.86, 1.73, 1.98] rounds differently from the reverse)
    jet, low = Jet([1.21, 1.82, 1.4]), Dual(1.5, 1.0, tag)
    t = Tangent({0: Jet([1.86, 1.73, 1.98]), 3: np.array([0.5, -1.5, 2.0])})
    for left, right in ((jet, t), (t, jet), (low, t), (t, low)):
        out = left * right
        assert isinstance(out, Tangent) and out.d.keys() == t.d.keys()
        want = [left * c if right is t else c * right for c in t.d.values()]
        assert leaf_values(list(out.d.values())) == leaf_values(want)
    # so does a Dual with a plain left operand, as a seeded evaluation has it
    right = Jet([1.86, 1.73, 1.98])
    out = jet * Dual(right, right, tag)
    assert leaf_values([out.val, out.dot]) == leaf_values([jet * right] * 2)


def test_batch_partials_inside_an_outer_derivative():
    # the rule closes over a Dual seeded before partials_at's own tag, so a
    # lower-tag Dual multiplies the Tangent from the left and must let the
    # Tangent scale each component
    z = np.array([[0.5, 0.7, 1.5, -0.2], [1.1, 0.3, -0.4, 0.9], [0.8, 1.9, 0.2, 0.6]])
    tag = dm.new_tag()
    a = Dual(0.7, 1.0, tag)
    f = PhaseFunction(lambda q, p: a * dm.sin(q[0] * p[1]) + q[1] / a - a * (p[0] * a), 2)
    value, dq, dp = partials_at(f, *columns(z))
    for i, row in enumerate(z.tolist()):
        ref = partials_at(f, tuple(row[:2]), tuple(row[2:]))
        for got, want in zip([value] + dq + dp, [ref[0]] + ref[1] + ref[2]):
            for part in (primal, lambda v: dm.tangent_part(v, tag)):
                assert np.broadcast_to(part(got), len(z))[i] == part(want)


# -- Trace leaf ------------------------------------------------------------


def test_trace_records_operations_and_guards():
    tape = dm.Tape()
    x, y = tape.inputs((1.5, -0.0))
    assert tape.params == ["t0", "t1"]
    a = x * y + dm.exp(x)
    b = x * y + dm.exp(x)  # a repeat is the Trace its first record made
    assert a.v == b.v == 1.5 * -0.0 + math.exp(1.5) and b is a
    assert tape.lines == ["t2 = t0 * t1", "t3 = c0(t0)", "t4 = t2 + t3"]
    assert tape.namespace == {"c0": math.exp}  # one name per function, however often called
    assert (2.0 - x).v == 0.5 and (2.0 ** x).v == 2.0**1.5
    assert tape.lines[-2:] == ["t5 = 2.0 - t0", "t6 = c1(2.0, t0)"]  # reflected operands keep their order
    assert tape.namespace["c1"] is math.pow
    n = len(tape.lines)
    assert (x == 1.5) is True and (x != 1.5) is False and (y < x) is True
    assert (x == 1.5) is True and (y < x) is True  # a repeated guard is checked once
    assert tape.lines[n:] == [  # guards and outcomes
        "if not (t0 == 1.5): return fallback(t0, t1)",
        "if (t0 != 1.5): return fallback(t0, t1)",
        "if not (t1 < t0): return fallback(t0, t1)",
    ]


def test_every_trace_power_records_math_pow():
    # the tape has one power op, whichever way the power was written
    tape = dm.Tape()
    (t,) = tape.inputs((1.3,))
    ys = (t**2, dm.pow_(t, 2), 2.0**t)
    assert [y.v for y in ys] == [1.3**2, 1.3**2, 2.0**1.3]
    assert ys[1] is ys[0]  # t**2 and pow_(t, 2) are one op
    assert [fn for fn, _, _ in tape.ops] == [math.pow] * 2
    assert [args for _, args, _ in tape.ops] == [(t, 2), (2.0, t)]
    assert tape.lines == ["t1 = c0(t0, 2)", "t2 = c0(2.0, t0)"]
    assert tape.namespace == {"c0": math.pow}


def test_the_memo_keeps_constants_apart():
    # a repeat is keyed by its constants' type and repr, and a NaN by identity, so
    # 0.0 and -0.0, 2 and 2.0, inf and -inf, and two NaNs of opposite sign stay apart
    tape = dm.Tape()
    (t,) = tape.inputs((1.3,))
    nan = math.nan
    pairs = [(t * 0.0, t * -0.0), (t**2, t**2.0), (t + 2, t + 2.0), (t * math.inf, t * -math.inf),
             (t + nan, t + -nan), (t * math.inf, t * nan)]
    for a, b in pairs:
        assert a is not b
    bits = [struct.pack("<d", v) for v in (1.3 * 0.0, 1.3 * -0.0, 1.3 * math.inf, 1.3 * -math.inf)]
    assert [struct.pack("<d", y.v) for y in (*pairs[0], *pairs[3])] == bits
    assert len(set(bits)) == 4
    assert len(tape.ops) == 11  # t * math.inf once, however often it is written
    assert t + nan is pairs[4][0] and t * 0.0 is pairs[0][0] and t + 2 is pairs[2][0]
    assert tape.lines[:5] == ["t1 = t0 * 0.0", "t2 = t0 * (-0.0)", "t3 = c0(t0, 2)",
                              "t4 = c0(t0, 2.0)", "t5 = t0 + 2"]


def test_only_a_product_with_one_is_left_out():
    # x * 1.0 and 1.0 * x are x on every double; x * 0.0 and x + 0.0 are not
    # (-1.5 * 0.0 is -0.0, -0.0 + 0.0 is 0.0, inf * 0.0 is NaN), so they are recorded
    tape = dm.Tape()
    x, y = tape.inputs((-1.5, -0.0))
    assert x * 1.0 is x and 1.0 * y is y and not tape.ops
    products = (x * 0.0, 0.0 * x, y + 0.0, 0.0 + y)
    assert [math.copysign(1.0, v.v) for v in products] == [-1.0, -1.0, 1.0, 1.0]
    assert tape.lines == ["t2 = t0 * 0.0", "t3 = 0.0 * t0", "t4 = t1 + 0.0", "t5 = 0.0 + t1"]
    f = PhaseFunction(lambda q, p: q[0] * 0.0 + (p[0] + 0.0) * 1.0 * q[0], 1)
    program = compile_partials(f, (-1.5,), (-0.0,))
    for q, p in [(-1.5, -0.0), (math.inf, 2.0), (-0.0, -0.0), (3.0, math.nan)]:
        assert repr(program(q, p)) == repr(partials_at(f, (q,), (p,)))


def test_trace_under_a_dual_and_refusals():
    tape = dm.Tape()
    (x,) = tape.inputs((0.8,))
    d = Dual(x, 1.0, dm.new_tag())
    y = x * d  # the Trace defers to the Dual, which keeps it as its leaf
    assert isinstance(y, Dual) and (y.val.v, y.dot.v) == (0.8 * 0.8, 0.8 * 1.0)
    assert dm.pow_(x, 3.0).v == math.pow(0.8, 3.0)
    for refuse in (bool, float, int, hash, operator.index):
        with pytest.raises(TypeError):
            refuse(x)
