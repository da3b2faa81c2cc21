"""Phase-space points, smooth phase functions, Poisson brackets and X_L.

Evaluation rules receive the coordinate and momentum blocks as tuples whose
entries are floats or :class:`~extham.duals.Dual` numbers, so every function
built from them supports exact first derivatives in any single phase
direction, at any nesting depth. An entry may also be a
:class:`~extham.duals.Batch` holding that coordinate at many points
(:func:`batch_blocks`), so one evaluation covers all of them.
:func:`partials_at` takes every partial from one evaluation, on every leaf.
Functions are immutable after construction and all operations are pure
but one: a base system keeps the programs it traces at its first regular
float point, the series program of its L's flow and the partials programs
of its G and L (``extension.BaseSystem``). Two threads may both build one,
and either serves, so concurrent evaluation at distinct points needs no
synchronization.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import duals
from .duals import Dual, Tangent, Tape, Trace, batch, new_tag, primal


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


def evaluate_batch(name, run, *args):
    """run(*args) on Batch leaves, with numpy's overflow, invalid and divide warnings off.

    An entry that overflows stays inf or NaN, for the caller's finiteness scan to
    refuse by its point. An OverflowError raised inside (a math function or a float
    power) names no point, so it becomes ValueError("<name> overflows double precision").
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            return run(*args)
        except OverflowError:
            raise ValueError(f"{name} overflows double precision") from None


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

    One evaluation gives every partial, on every leaf (float, Batch, Trace,
    Jet, or the Duals of an enclosing evaluation): q_i is seeded as
    direction i and p_i as direction dof + i of a Tangent under one tag.
    Each partial equals the one seeded along its slot alone bit for bit, and
    an absent direction is 0.0. Where the same f is differentiated at many
    float points (H in integrate, a base system's G and L in the closed
    forms), compile_partials turns that one evaluation into a plain-float
    program instead.
    """
    d = len(q)
    tag = new_tag()
    y = f.rule(tuple([Dual(v, Tangent({i: 1.0}), tag) for i, v in enumerate(q)]),
               tuple([Dual(v, Tangent({d + i: 1.0}), tag) for i, v in enumerate(p)]))
    if not (isinstance(y, Dual) and y.tag == tag):
        return y, [0.0] * d, [0.0] * d
    parts = [y.dot.d.get(j, 0.0) for j in range(2 * d)]
    return y.val, parts[:d], parts[d:]


def compile_partials(f, q, p):
    """partials_at(f, ., .) on float points as one straight-line program.

    partials_at runs at the float point (q, p) on Trace leaves, and the
    tape's float program (Tape.lines) of that one evaluation becomes the
    program, which returns (value, dq, dp) bit for bit as partials_at does.
    The program takes the coordinates as separate arguments. Where a
    comparison the evaluation branched on comes out the other way, it
    returns partials_at's answer, which takes the other branch or raises.
    Where one of its operations raises, partials_at raises the same
    exception at the same operation. Where the evaluation cannot be
    traced at (q, p), or raises there, the callable returned is partials_at
    itself.
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
    lines, atom = tape.lines, tape.atom  # written first, so constants are named in tape order
    result = f"return {atom(value)}, [{', '.join(map(atom, dq))}], [{', '.join(map(atom, dp))}]"
    tape.namespace["fallback"] = fallback
    return duals.define("partials", tape.params, lines + [result], tape.namespace,
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
