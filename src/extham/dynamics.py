"""Implicit-midpoint integration of Hamiltonian flows with drift reporting.

The midpoint rule is symplectic for arbitrary smooth H (the warped kinetic
terms here are not separable, which rules out leapfrog) and symmetric, so
trajectories are time-reversible and energy error stays bounded at second
order. The implicit stage is solved by fixed-point iteration; gradients come
from the exact differentiation scheme.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .phase import PhasePoint, batch_blocks, gradient

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

    def point(self, i):
        return PhasePoint.from_array(self.states[i])

    def write_csv(self, fh):
        """Write t, q..., p... rows to fh, a text file opened with newline=""."""
        d = self.dof
        header = ["t"] + [f"q{i+1}" for i in range(d)] + [f"p{i+1}" for i in range(d)]
        w = csv.writer(fh)
        w.writerow(header)
        for t, s in zip(self.times, self.states):
            w.writerow([repr(float(t))] + [repr(float(v)) for v in s])


def _flow_rhs(H, z):
    d = len(z) // 2
    g = gradient(H, PhasePoint.from_array(z))
    return np.concatenate([g[d:], -g[:d]])


def integrate(H, x0, h, steps, fp_tol=1e-13, max_iter=50, u_min=None, u_slot=0):
    """Implicit-midpoint trajectory of Hamilton's equations from x0.

    h may be negative (the method is symmetric, so this is the exact time
    reversal). When u_min is given, the run truncates with DOMAIN_EXIT as
    soon as position slot u_slot drops below it. An implicit solve whose
    residual never falls to fp_tol in max_iter iterations truncates with
    NO_CONVERGENCE; one whose iterate leaves H's domain (evaluating the flow
    raises, or the iterate is no longer finite) truncates with LEFT_DOMAIN.
    The rule evaluates H only between states, so when the run stops H is
    evaluated once at the last state: if that raises, the state is dropped
    and the run truncates with LEFT_DOMAIN at the step that produced it.
    """
    if h == 0.0:
        raise ValueError("step size must be nonzero")
    z = x0.as_array()
    states = [z.copy()]
    status = COMPLETED
    exit_step = None
    for step in range(steps):
        if u_min is not None and z[u_slot] < u_min:
            status, exit_step = DOMAIN_EXIT, step
            break
        y = z.copy()
        failure = NO_CONVERGENCE
        for _ in range(max_iter):
            try:
                y_new = z + h * _flow_rhs(H, 0.5 * (z + y))
            except (OverflowError, ValueError, ZeroDivisionError):
                failure = LEFT_DOMAIN
                break
            if not np.all(np.isfinite(y_new)):
                failure = LEFT_DOMAIN
                break
            residual = np.max(np.abs(y_new - y))
            y = y_new
            if residual <= fp_tol:
                failure = None
                break
        if failure is not None:
            status, exit_step = failure, step
            break
        z = y
        states.append(z.copy())
    if len(states) > 1:
        try:
            H(PhasePoint.from_array(states[-1]))
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
