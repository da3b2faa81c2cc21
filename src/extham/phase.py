"""Phase-space points, smooth phase functions, Poisson brackets and X_L.

Evaluation rules receive the coordinate and momentum blocks as tuples whose
entries are floats or :class:`~extham.duals.Dual` numbers, so every function
built from them supports exact first derivatives in any single phase
direction, at any nesting depth. An entry may also be a
:class:`~extham.duals.Batch` holding that coordinate at many points
(:func:`batch_blocks`), so one evaluation covers all of them. Functions
are immutable after construction and all operations are pure; concurrent
evaluation at distinct points needs no synchronization.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import duals
from .duals import Dual, Tangent, batch, new_tag, primal, tangent_part, value_part


@dataclass(frozen=True)
class PhasePoint:
    """Real phase-space point: position block q and momentum block p."""

    q: tuple
    p: tuple

    def __post_init__(self):
        q = tuple(float(v) for v in self.q)
        p = tuple(float(v) for v in self.p)
        if len(q) != len(p):
            raise ValueError(f"q and p must have equal length, got {len(q)} and {len(p)}")
        if not all(map(math.isfinite, q + p)):
            raise ValueError(f"non-finite phase point: q={q} p={p}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def dof(self):
        return len(self.q)

    def as_array(self):
        return np.array(self.q + self.p, dtype=float)

    @staticmethod
    def from_array(z):
        d = len(z) // 2
        return PhasePoint(tuple(z[:d]), tuple(z[d:]))


class PhaseFunction:
    """Scalar phase-space function with exact first-derivative support.

    Wraps an evaluation rule ``rule(q, p) -> scalar`` that must be generic in
    its inputs (floats or Duals).
    """

    __slots__ = ("rule", "dof")

    def __init__(self, rule, dof):
        self.rule = rule
        self.dof = dof

    def __call__(self, x):
        if x.dof != self.dof:
            raise ValueError(f"function of {self.dof} dof evaluated at a {x.dof}-dof point")
        return self.rule(x.q, x.p)


def batch_blocks(z):
    """(q, p) blocks of Batch leaves for the points that are the rows of z."""
    d = z.shape[1] // 2
    cols = tuple(batch(z[:, i]) for i in range(2 * d))
    return cols[:d], cols[d:]


def lift_last(f, dof):
    """Promote a function to a larger phase space, reading the trailing block.

    A function of (psi, p_psi) lifted to (u, psi, p_u, p_psi) ignores the
    leading slots; this is the silent promotion used by the extension
    machinery.
    """
    if f.dof > dof:
        raise ValueError("cannot lift to a smaller phase space")
    if f.dof == dof:
        return f
    k = f.dof
    rule = f.rule
    return PhaseFunction(lambda q, p: rule(q[-k:], p[-k:]), dof)


def _seeded(block, i, tag):
    return block[:i] + (duals.seed(block[i], tag),) + block[i + 1 :]


def partials_at(f, q, p, slots):
    """df/dq_i and df/dp_i for each slot i, plus the plain value of f.

    On Batch leaves (the outermost level of a sweep; the first coordinate
    decides) one evaluation gives every partial: each slot is seeded under
    one tag with its own direction of a Tangent, and each partial equals the
    seeded one bit for bit. On any other leaves (floats, Jets, the Duals of
    an enclosing evaluation) each directional derivative costs one
    instrumented evaluation, and the value is the primal of the first. Floats stay seeded because there the
    tangent bookkeeping costs more than the primal work it saves: one
    evaluation on float leaves took the benchmark's flow workload from
    about 2630 to about 1500 items/s.
    """
    if isinstance(q[0], np.ndarray):
        return _partials_in_one_evaluation(f, q, p, slots)
    dq = []
    dp = []
    value = None
    for i in slots:
        tag = new_tag()
        y = f.rule(_seeded(q, i, tag), p)
        if value is None:
            value = value_part(y, tag)
        dq.append(tangent_part(y, tag))
        tag = new_tag()
        y = f.rule(q, _seeded(p, i, tag))
        dp.append(tangent_part(y, tag))
    if value is None:
        value = f.rule(q, p)
    return value, dq, dp


def _partials_in_one_evaluation(f, q, p, slots):
    """partials_at with every slot seeded at once: q_i is direction k and p_i is
    direction len(slots) + k for the k-th slot i; an absent direction is 0.0."""
    slots = tuple(slots)
    n = len(slots)
    tag = new_tag()
    q, p = list(q), list(p)
    for k, i in enumerate(slots):
        q[i] = Dual(q[i], Tangent({k: 1.0}), tag)
        p[i] = Dual(p[i], Tangent({n + k: 1.0}), tag)
    y = f.rule(tuple(q), tuple(p))
    dot = tangent_part(y, tag)
    d = dot.d if isinstance(dot, Tangent) else {}
    parts = [d.get(j, 0.0) for j in range(2 * n)]
    return value_part(y, tag), parts[:n], parts[n:]


def poisson_bracket(f, g, x):
    """{f, g} = sum_i df/dq_i dg/dp_i - df/dp_i dg/dq_i at the point x."""
    if f.dof != g.dof:
        raise ValueError("bracket of functions on different phase spaces")
    slots = range(f.dof)
    _, fq, fp = partials_at(f, x.q, x.p, slots)
    _, gq, gp = partials_at(g, x.q, x.p, slots)
    return bracket_of_gradients(fq + fp, gq + gp)


def bracket_of_gradients(gf, gg):
    """{f, g} from the gradients (d/dq..., d/dp...) of f and g.

    The one bracket formula: terms are summed from 0.0 in slot order, so a
    bracket taken from precomputed gradients equals poisson_bracket exactly.
    """
    d = len(gf) // 2
    total = 0.0
    for i in range(d):
        total = total + (gf[i] * gg[d + i] - gf[d + i] * gg[i])
    return total


def hamiltonian_vector_field(L, f):
    """X_L(f) = {f, L} as a new phase function."""
    if L.dof != f.dof:
        raise ValueError("X_L requires L and f on the same phase space")

    def rule(q, p):
        _, fq, fp = partials_at(f, q, p, range(f.dof))
        _, Lq, Lp = partials_at(L, q, p, range(f.dof))
        return bracket_of_gradients(fq + fp, Lq + Lp)

    return PhaseFunction(rule, f.dof)


def gradient(f, x):
    """All first partials (d/dq..., d/dp...) as a numpy vector."""
    _, dq, dp = partials_at(f, x.q, x.p, range(f.dof))
    return np.array([primal(v) for v in dq] + [primal(v) for v in dp])


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient; the independent cross-check oracle."""
    z = x.as_array()
    out = np.empty_like(z)
    for i in range(len(z)):
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        out[i] = (f(PhasePoint.from_array(zp)) - f(PhasePoint.from_array(zm))) / (2 * h)
    return out


def fd_poisson_bracket(f, g, x, h=1e-5):
    """Brute-force bracket from central differences only."""
    return float(bracket_of_gradients(fd_gradient(f, x, h), fd_gradient(g, x, h)))
