"""Phase-space points, smooth phase functions, Poisson brackets and X_L.

Evaluation rules receive the coordinate and momentum blocks as tuples whose
entries are floats or :class:`~extham.duals.Dual` numbers, so every function
built from them supports exact first derivatives in any single phase
direction, at any nesting depth. An entry may also be a
:class:`~extham.duals.Batch` holding that coordinate at many points
(:func:`batch_blocks`), so one evaluation covers all of them.
:func:`partials_at` seeds one direction per evaluation only where every
coordinate is a plain float; on any other leaf one evaluation gives every
partial. Functions are immutable after construction and all operations are
pure but one: a base system keeps the series program of its L's flow
(``extension.BaseSystem.flow_series``), built on first use. Two threads may
both build it, and either serves, so concurrent evaluation at distinct points
needs no synchronization.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import duals
from .duals import Dual, Tangent, Tape, Trace, batch, new_tag, primal, tangent_part, value_part


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


def partials_at(f, q, p):
    """(value, [df/dq_i], [df/dp_i]) of f at (q, p), over every slot i of its phase space.

    One rule decides how. On plain float coordinates each directional
    derivative costs one seeded evaluation, and the value is the primal of
    the first: there the tangent bookkeeping costs more than the primal work
    it saves (a float-point closed-form K of the benchmark's oracle base,
    K(1,1) to K(5,3), takes 18-20 us seeded against 35-38 us through a
    Tangent; timeit minima, 2-core AMD EPYC, Python 3.11). On every other
    leaf (Batch, Trace, Jet, or the Duals of an enclosing evaluation) one
    evaluation gives every partial: q_i is seeded as direction i and p_i as
    direction dof + i of a Tangent under one tag, each partial equals the
    seeded one bit for bit, and an absent direction is 0.0. Where the same f
    is differentiated at many float points, compile_partials turns that one
    evaluation into a plain-float program instead.
    """
    d = len(q)
    # the first test alone settles every leaf but a float, at no cost to Jets
    if type(q[0]) is float and all(type(v) is float for v in q + p):
        dq = []
        dp = []
        for i in range(d):
            tag = new_tag()
            y = f.rule(q[:i] + (Dual(q[i], 1.0, tag),) + q[i + 1 :], p)
            if not i:
                value = value_part(y, tag)
            dq.append(tangent_part(y, tag))
            tag = new_tag()
            y = f.rule(q, p[:i] + (Dual(p[i], 1.0, tag),) + p[i + 1 :])
            dp.append(tangent_part(y, tag))
        return value, dq, dp
    tag = new_tag()
    y = f.rule(tuple([Dual(v, Tangent({i: 1.0}), tag) for i, v in enumerate(q)]),
               tuple([Dual(v, Tangent({d + i: 1.0}), tag) for i, v in enumerate(p)]))
    if not (isinstance(y, Dual) and y.tag == tag):
        return y, [0.0] * d, [0.0] * d
    parts = [y.dot.d.get(j, 0.0) for j in range(2 * d)]
    return y.val, parts[:d], parts[d:]


def compile_partials(f, q, p):
    """partials_at(f, ., .) on float points as one straight-line program.

    partials_at runs at the float point (q, p) on Trace leaves, where it
    takes its one evaluation with every slot seeded at once, so the tape
    writes its float operations as the program's source, and the program
    returns (value, dq, dp) bit for bit as partials_at does. The program
    takes the coordinates as separate arguments. Where a comparison the
    evaluation branched on comes out the other way, it returns partials_at's
    answer, which takes the other branch or raises. Where one of its
    operations raises, so does the same operation in partials_at; where two
    raise at one point, the two may raise different ones, since on floats
    partials_at runs the slots one after another. Where the evaluation
    cannot be traced at (q, p), the callable returned is partials_at itself.
    """
    d = len(q)

    def fallback(*z):
        return partials_at(f, z[:d], z[d:])

    tape = Tape()
    try:
        value, dq, dp = partials_at(f, tape.inputs(q), tape.inputs(p))
    except Exception:  # any failure, untraceable or not, leaves partials_at in charge
        return fallback
    if not all(isinstance(x, (Trace, float, int)) for x in (value, *dq, *dp)):
        return fallback
    atom = tape.atom
    result = f"return {atom(value)}, [{', '.join(map(atom, dq))}], [{', '.join(map(atom, dp))}]"
    tape.namespace["fallback"] = fallback
    return duals.define("partials", tape.params, tape.lines + [result], tape.namespace,
                        "<compile_partials>")


def poisson_bracket(f, g, x):
    """{f, g} = sum_i df/dq_i dg/dp_i - df/dp_i dg/dq_i at the point x."""
    if f.dof != g.dof:
        raise ValueError("bracket of functions on different phase spaces")
    _, fq, fp = partials_at(f, x.q, x.p)
    _, gq, gp = partials_at(g, x.q, x.p)
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
        _, fq, fp = partials_at(f, q, p)
        _, Lq, Lp = partials_at(L, q, p)
        return bracket_of_gradients(fq + fp, Lq + Lp)

    return PhaseFunction(rule, f.dof)


def gradient(f, x):
    """All first partials (d/dq..., d/dp...) as a numpy vector."""
    _, dq, dp = partials_at(f, x.q, x.p)
    return np.array([primal(v) for v in dq] + [primal(v) for v in dp])
