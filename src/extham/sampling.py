"""Seeded phase-space point sampling on the counter-based Philox generator.

Positions default to [0.3, 2.0] (bounded away from u = 0 and the gamma
poles of the catalog systems) and momenta to [-2, 2]. Philox (4x64-10) is
deterministic across platforms, so reports quoting a seed are reproducible
byte for byte.
"""

import numpy as np

from .phase import PhasePoint

RNG_NAME = "philox4x64-10"


def make_rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def sample_points(num, seed, dof, q_range=(0.3, 2.0), p_range=(-2.0, 2.0), q_ranges=None):
    """num seeded PhasePoints; per-slot position windows via q_ranges.

    One draw fills a (num, 2*dof) array row by row, with each column scaled
    to its own window: the same values, in the same order, as one
    ``rng.uniform(lo, hi)`` call per coordinate.
    """
    rng = make_rng(seed)
    if q_ranges is None:
        q_ranges = [q_range] * dof
    windows = list(q_ranges) + [p_range] * dof
    lo = [w[0] for w in windows]
    hi = [w[1] for w in windows]
    rows = rng.uniform(lo, hi, size=(num, 2 * dof)).tolist()
    return [PhasePoint(tuple(r[:dof]), tuple(r[dof:])) for r in rows]


def sample_scalars(num, seed, lo, hi):
    rng = make_rng(seed)
    return [float(v) for v in rng.uniform(lo, hi, size=num)]
