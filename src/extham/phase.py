"""Phase-space points, smooth phase functions, Poisson brackets and X_L.

Evaluation rules receive the coordinate and momentum blocks as tuples whose
entries are floats or :class:`~extham.duals.Dual` numbers, so every function
built from them supports exact first derivatives in any single phase
direction, at any nesting depth. An entry may also be a float64 array
holding that coordinate at many points, so one evaluation covers all of
them, bare or under :func:`partials_at`, which takes every partial from one
evaluation on every leaf. Functions are immutable after construction and
all operations are pure but one: an ``extension.Extension`` keeps, for each
integral it hands out, the straight-line program that :func:`compile_rule`
traces at its second float point, and runs it at plain float points only.
Two threads may both build one, and either serves, so concurrent evaluation
at distinct points needs no synchronization.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import duals
from .duals import Dual, Tangent, Tape, Trace, new_tag, primal


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

    @staticmethod
    def from_array(z):
        d = len(z) // 2
        return PhasePoint(tuple(z[:d]), tuple(z[d:]))


class PhaseFunction:
    """Scalar phase-space function with exact first-derivative support.

    Wraps an evaluation rule ``rule(q, p) -> scalar`` that must be generic in
    its inputs (floats, float64 arrays or Duals). Where it writes its powers
    through ``duals.pow_``, it agrees bit for bit with its float evaluation on
    every leaf; a bare ``**`` on an array is numpy's.
    """

    __slots__ = ("rule", "dof")

    def __init__(self, rule, dof):
        self.rule = rule
        self.dof = dof

    def __call__(self, x):
        if x.dof != self.dof:
            raise ValueError(f"function of {self.dof} dof evaluated at a {x.dof}-dof point")
        return self.rule(x.q, x.p)


def evaluate_batch(name, run, *args):
    """run(*args) on array leaves, with numpy's overflow, invalid and divide warnings off.

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
    k = f.dof
    rule = f.rule
    return PhaseFunction(lambda q, p: rule(q[-k:], p[-k:]), dof)


def partials_at(f, q, p):
    """(value, [df/dq_i], [df/dp_i]) of f at (q, p), over every slot i of its phase space.

    One evaluation gives every partial, on every leaf (float, float64 array,
    Trace, Jet, or the Duals of an enclosing evaluation):
    q_i is seeded as direction i and p_i as direction dof + i of a Tangent
    under one tag. Each partial equals the one seeded along its slot alone
    bit for bit, and an absent direction is 0.0. Where H is differentiated
    at many float points in integrate's solve, trace_partials turns that one
    evaluation into plain-float lines instead.
    """
    d = len(q)
    tag = new_tag()
    y = f.rule(tuple([Dual(v, Tangent({i: 1.0}), tag) for i, v in enumerate(q)]),
               tuple([Dual(v, Tangent({d + i: 1.0}), tag) for i, v in enumerate(p)]))
    if isinstance(y, Dual) and y.tag == tag:
        value, parts = y.val, [y.dot.d.get(j, 0.0) for j in range(2 * d)]
    else:
        value, parts = y, [0.0] * (2 * d)
    return value, parts[:d], parts[d:]


def trace_partials(f, q, p):
    """partials_at(f) at the float point (q, p) as straight-line source: (tape, lines, answer).

    partials_at runs once there on Trace leaves; lines is its tape's float
    program (Tape.lines) over the inputs tape.params, and answer the source of
    [value, *dq, *dp]. Where the evaluation cannot be traced at (q, p) or raises
    there, lines is ``return fallback(<params>)`` and answer is empty. Either
    way the tape's namespace needs a ``fallback`` before lines run.
    """
    tape = Tape()
    try:
        value, dq, dp = partials_at(f, tape.inputs(q), tape.inputs(p))
        answer = [value, *dq, *dp]
    except Exception:  # any failure, untraceable or not, leaves partials_at in charge
        answer = [None]
    if not all(isinstance(x, (Trace, float, int)) for x in answer):
        return tape, [f"return fallback({', '.join(tape.params)})"], []
    lines = tape.lines  # written first, so constants are named in tape order
    return tape, lines, [tape.atom(x) for x in answer]


def compile_rule(run, q, p):
    """The scalar rule run(q, p) at float points as one straight-line program.

    run runs once on Trace leaves at the float point (q, p); the program takes
    (q, p) as run does and runs the tape's lines (Tape.lines), so a repeated
    operation runs once. It returns run's answer bit for bit, and where a
    comparison run branched on comes out the other way, run's own answer. An
    operation that raises does so in the program as in run (a repeated one at
    its first place). Where run cannot be traced at (q, p), or raises there,
    the callable returned is run itself.
    """
    d = len(q)

    def fallback(*z):
        return run(z[:d], z[d:])

    tape = Tape()
    try:
        answer = run(tape.inputs(q), tape.inputs(p))
    except Exception:  # any failure, untraceable or not, leaves run in charge
        return run
    if not isinstance(answer, (Trace, float, int)):
        return run
    lines = tape.lines  # written first, so constants are named in tape order
    tape.namespace["fallback"] = fallback
    head = [f"{', '.join(tape.params[:d])}, = q", f"{', '.join(tape.params[d:])}, = p"]
    return duals.define("rule", ("q", "p"), head + lines + [f"return {tape.atom(answer)}"],
                        tape.namespace, "<compile_rule>")


def poisson_bracket(f, g, x):
    """{f, g} = sum_i df/dq_i dg/dp_i - df/dp_i dg/dq_i at the point x: X_g(f) at x, by
    hamiltonian_vector_field's rule. A point of another dof raises ValueError."""
    if f.dof != g.dof:
        raise ValueError("bracket of functions on different phase spaces")
    return hamiltonian_vector_field(g, f)(x)


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
