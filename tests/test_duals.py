import math
import operator

import numpy as np
import pytest

from extham import duals as dm
from extham.catalog import exp_base
from extham.duals import Dual, Jet, Tangent, derivative, primal, taylor
from extham.extension import Extension, ExtensionSpec, bracket_scale
from extham.phase import (
    PhaseFunction,
    batch_blocks,
    hamiltonian_vector_field,
    partials_at,
    poisson_bracket,
)
from extham.sampling import sample_points
from extham.tagged_trig import GammaProfile

from references import leaf_values, nth_derivative


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
    # a Batch gives each entry's float result
    col = dm.batch([0.35, 0.9, 1.3])
    assert [d.tolist() for d in taylor(f, col, 2)] == [
        [taylor(f, x, 2)[k] for x in (0.35, 0.9, 1.3)] for k in range(3)]


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
    col = dm.batch(xs)
    assert [f(x) for x in xs] == [libm(x) for x in xs]
    assert isinstance(f(col), dm.Batch) and f(col).tolist() == [libm(x) for x in xs]
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
    ("int powers", lambda x: x**3 - 2.0 * x**-2),
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
    for x in sample_points(5, 60, 2):
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


# -- Batch leaf ------------------------------------------------------------

BATCH_XS = [0.35 + 0.0137 * i for i in range(80)]


@pytest.mark.parametrize("name,f", JET_FUNCS)
def test_batch_equals_float_evaluation(name, f):
    # values and derivatives over a Batch equal the float ones bit for bit
    got = f(dm.batch(BATCH_XS))
    assert isinstance(got, dm.Batch)
    assert got.tolist() == [f(x) for x in BATCH_XS]
    slopes = derivative(f, dm.batch(BATCH_XS))
    assert np.broadcast_to(slopes, len(BATCH_XS)).tolist() == [derivative(f, x) for x in BATCH_XS]


def test_arrays_defer_to_duals():
    d = Dual(1.5, 1.0, dm.new_tag())
    outs = (np.array([1.0, 2.0]) + d, np.float64(2.0) * d, np.ones(2) / d,
            np.float64(3.0) - d, dm.batch([1.0, 2.0]) * d, dm.batch([2.0, 3.0]) ** d)
    for out in outs:
        assert isinstance(out, Dual)
    assert outs[0].val.tolist() == [2.5, 3.5]
    assert outs[1].val == 3.0 and outs[1].dot == 2.0
    assert outs[-1].dot.tolist() == [(2.0**d).dot, (3.0**d).dot]


def test_batch_abs_and_guards():
    tag = dm.new_tag()
    a = abs(Dual(dm.batch([-1.5, 0.0, 2.0]), 1.0, tag))
    assert a.val.tolist() == [1.5, 0.0, 2.0]
    assert a.dot.tolist() == [-1.0, 1.0, 1.0]
    assert dm.any_true(dm.batch([0.5, -0.1]) <= 0.0)
    assert not dm.any_true(dm.batch([0.5, 0.1]) <= 0.0)
    assert dm.any_true(-0.1 <= 0.0) is True and dm.any_true(0.1 <= 0.0) is False


def test_batch_power_is_python_power():
    # numpy's power differs from libm's in the last bit on a share of inputs
    xs = [0.3 + 0.0123 * i for i in range(200)]
    for r in (2, 3, 7, -2, 0.5, -1.7):
        assert (dm.batch(xs) ** r).tolist() == [x**r for x in xs]
        assert dm.pow_(dm.batch(xs), r).tolist() == [math.pow(x, r) for x in xs]
    assert (2.0 ** dm.batch(xs)).tolist() == [2.0**x for x in xs]
    with pytest.raises(ValueError, match="math domain error"):
        dm.pow_(dm.batch([1.0, -2.0]), 0.5)
    with pytest.raises(OverflowError):
        dm.pow_(dm.batch([1.0, 1e200]), 3.0)


def test_batch_no_perturbation_confusion_hypothesis():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def f(x, y0):
        # d/dx [x * d/dy (x exp(x y) + sin(x y)) at y0]: the inner tag is newer
        return x * derivative(lambda y: x * dm.exp(x * y) + dm.sin(y * x), y0)

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(st.lists(st.floats(0.2, 2.0), min_size=1, max_size=8), st.floats(0.3, 1.5))
    def batched_equals_per_entry(xs, y0):
        got = derivative(lambda x: f(x, y0), dm.batch(xs))
        assert np.broadcast_to(got, len(xs)).tolist() == [derivative(lambda x: f(x, y0), x)
                                                           for x in xs]

    batched_equals_per_entry()


def test_batch_partials_no_perturbation_confusion_hypothesis():
    # partials_at on Batch leaves carries every direction under one tag; an
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
        value, dq, dp = partials_at(f, *batch_blocks(np.array(zs)), range(2))
        ref = [partials_at(f, z[:2], z[2:], range(2)) for z in zs]
        assert value.tolist() == [v for v, _, _ in ref]
        got = [np.broadcast_to(d, len(zs)).tolist() for d in dq + dp]
        assert got == [[r[1 + s // 2][s % 2] for r in ref] for s in range(4)]

    batched_equals_per_entry()


def test_square_primal_is_pow_on_every_leaf():
    # pow(x, 2) and x * x differ in the last bit on a share of inputs (this
    # one under glibc 2.36); a Dual squares like its float or Batch value,
    # through pow, so a value's primal does not depend on which slot is seeded
    x = 1.6051211967710652
    col = dm.batch([x, 0.15170188774368704, 1.72970728398619])
    tag = dm.new_tag()
    # the tangent is still the product rule's x dx + dx x, bit for bit
    sq = Dual(x, 0.7, tag) ** 2
    assert sq.val == x**2 and sq.dot == x * 0.7 + 0.7 * x
    sq = Dual(col, 0.7, tag) ** 2
    assert sq.val.tolist() == (col**2).tolist() == [v**2 for v in col.tolist()]
    assert sq.dot.tolist() == (col * 0.7 + 0.7 * col).tolist()
    assert dm.pow_(Dual(x, 0.7, tag), 2).val == x**2


def test_tangent_components_equal_seeded_evaluations():
    # direction j of a Tangent equals the evaluation seeded along j alone:
    # where one operand lacks j it acts as that evaluation's plain value,
    # so a - b gives -b_j and a / b gives __rtruediv__'s (-q b_j) / b
    tag = dm.new_tag()
    vals = dm.batch([1.5, -0.4, 0.7]), dm.batch([0.3, 2.2, -1.1])
    zero_in_b = dm.batch([1.0, 0.0, -2.0])  # -0.0 must come out where a lacks the direction
    a = Dual(vals[0], Tangent({0: 1.0, 2: dm.batch([0.5, 0.25, -2.0])}), tag)
    b = Dual(vals[1], Tangent({1: zero_in_b, 2: 3.0}), tag)
    seeds = {0: (1.0, None), 1: (None, zero_in_b), 2: (dm.batch([0.5, 0.25, -2.0]), 3.0)}
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
    t = Tangent({0: Jet([1.86, 1.73, 1.98]), 3: dm.batch([0.5, -1.5, 2.0])})
    for left, right in ((jet, t), (t, jet), (low, t), (t, low)):
        out = left * right
        assert isinstance(out, Tangent) and out.d.keys() == t.d.keys()
        want = [left * c if right is t else c * right for c in t.d.values()]
        assert leaf_values(list(out.d.values())) == leaf_values(want)


def test_batch_partials_inside_an_outer_derivative():
    # the rule closes over a Dual seeded before partials_at's own tag, so a
    # lower-tag Dual multiplies the Tangent from the left and must let the
    # Tangent scale each component
    z = np.array([[0.5, 0.7, 1.5, -0.2], [1.1, 0.3, -0.4, 0.9], [0.8, 1.9, 0.2, 0.6]])
    tag = dm.new_tag()
    a = Dual(0.7, 1.0, tag)
    f = PhaseFunction(lambda q, p: a * dm.sin(q[0] * p[1]) + q[1] / a - a * (p[0] * a), 2)
    value, dq, dp = partials_at(f, *batch_blocks(z), range(2))
    for i, row in enumerate(z.tolist()):
        ref = partials_at(f, tuple(row[:2]), tuple(row[2:]), range(2))
        for got, want in zip([value] + dq + dp, [ref[0]] + ref[1] + ref[2]):
            for part in (primal, lambda v: dm.tangent_part(v, tag)):
                assert np.broadcast_to(part(got), len(z))[i] == part(want)
