"""Implicit-midpoint integration of Hamiltonian flows with drift reporting.

The midpoint rule is symplectic for arbitrary smooth H (the warped kinetic
terms here are not separable, which rules out leapfrog) and symmetric, so
trajectories are time-reversible and energy error stays bounded at second
order. The implicit stage is solved by fixed-point iteration; gradients come
from the exact differentiation scheme.

The iteration runs on plain floats: each fixed-point iteration makes one
``partials_at`` call on the midpoint blocks and updates the state entry by
entry, with the same IEEE operations in the same order as the vector form
(midpoint ``0.5 * (a + b)``, update ``z + h * rhs``, residual the largest
``|y_new - y|``). It starts every solve from the last state rather than from
a predictor such as ``z + h * slope``: a predictor saves about one iteration
per step but moves every iterate in its last bits, which changes where a
collapsing orbit stops and how.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .duals import primal
from .phase import batch_blocks, partials_at

COMPLETED = "completed"
DOMAIN_EXIT = "domain-exit"
NO_CONVERGENCE = "no-convergence"
LEFT_DOMAIN = "left-domain"


@dataclass
class Trajectory:
    """Uniform-step trajectory; states has shape (len(times), 2*dof)."""

    times: np.ndarray
    states: np.ndarray
    h: float
    method: str = "implicit-midpoint"
    status: str = COMPLETED
    exit_step: int = None

    @property
    def dof(self):
        return self.states.shape[1] // 2

    def write_csv(self, fh):
        """Write t, q..., p... rows to fh, a text file opened with newline=""."""
        d = self.dof
        header = ["t"] + [f"q{i+1}" for i in range(d)] + [f"p{i+1}" for i in range(d)]
        w = csv.writer(fh)
        w.writerow(header)
        for t, s in zip(self.times, self.states):
            w.writerow([repr(float(t))] + [repr(float(v)) for v in s])


def integrate(H, x0, h, steps, fp_tol=1e-13, max_iter=50, u_min=None):
    """Implicit-midpoint trajectory of Hamilton's equations from x0.

    h may be negative (the method is symmetric, so this is the exact time
    reversal). When u_min is given, the run truncates with DOMAIN_EXIT as
    soon as the first position coordinate drops below it. An implicit solve whose
    residual never falls to fp_tol in max_iter iterations truncates with
    NO_CONVERGENCE; one whose iterate leaves H's domain (evaluating the flow
    raises, or the midpoint or iterate is no longer finite) truncates with
    LEFT_DOMAIN. The rule evaluates H only between states, so when the run
    stops H is evaluated once at the last state: if that raises, the state
    is dropped and the run truncates with LEFT_DOMAIN at the step that
    produced it.
    """
    if h == 0.0:
        raise ValueError("step size must be nonzero")
    d = x0.dof
    if H.dof != d:
        raise ValueError(f"function of {H.dof} dof evaluated at a {d}-dof point")
    slots = range(d)
    z = x0.q + x0.p
    states = [z]
    status = COMPLETED
    exit_step = None
    for step in range(steps):
        if u_min is not None and z[0] < u_min:
            status, exit_step = DOMAIN_EXIT, step
            break
        y = z
        failure = NO_CONVERGENCE
        for _ in range(max_iter):
            mid = [0.5 * (a + b) for a, b in zip(z, y)]
            if not all(map(math.isfinite, mid)):
                failure = LEFT_DOMAIN
                break
            try:
                _, dq, dp = partials_at(H, tuple(mid[:d]), tuple(mid[d:]), slots)
            except (OverflowError, ValueError, ZeroDivisionError):
                failure = LEFT_DOMAIN
                break
            rhs = [float(primal(v)) for v in dp] + [-float(primal(v)) for v in dq]
            y_new = tuple(a + h * r for a, r in zip(z, rhs))
            if not all(map(math.isfinite, y_new)):
                failure = LEFT_DOMAIN
                break
            residual = max(abs(a - b) for a, b in zip(y_new, y))
            y = y_new
            if residual <= fp_tol:
                failure = None
                break
        if failure is not None:
            status, exit_step = failure, step
            break
        z = y
        states.append(z)
    if len(states) > 1:
        last = states[-1]
        try:
            H.rule(last[:d], last[d:])
        except (OverflowError, ValueError, ZeroDivisionError):
            states.pop()
            status, exit_step = LEFT_DOMAIN, len(states) - 1
    n = len(states)
    times = np.arange(n) * h
    return Trajectory(times=times, states=np.array(states), h=h, status=status,
                      exit_step=exit_step)


def drift_report(traj, functions):
    """Max relative drift |f(x_t) - f(x_0)| / (1 + |f(x_0)|) per function.

    functions maps name -> PhaseFunction. Each is evaluated once, on every
    state at a time as Batch leaves; evaluation failures propagate.
    """
    q, p = batch_blocks(traj.states)
    out = {}
    for name, f in functions.items():
        if f.dof != traj.dof:
            raise ValueError(f"function of {f.dof} dof evaluated at a {traj.dof}-dof point")
        values = np.broadcast_to(f.rule(q, p), len(traj.states)).tolist()
        f0 = values[0]
        denom = 1.0 + abs(f0)
        out[name] = max(abs(v - f0) for v in values) / denom
    return out
