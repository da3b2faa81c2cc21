"""Seeded phase-space sampling on the counter-based Philox generator.

Each sampler returns the float64 array it draws. Positions default to
[0.3, 2.0] (bounded away from u = 0 and the gamma poles of the catalog
systems) and momenta to [-2, 2]. Philox (4x64-10) is deterministic across
platforms, so reports quoting a seed are reproducible byte for byte.
"""

import numpy as np

RNG_NAME = "philox4x64-10"


def make_rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def sample_points(num, seed, dof, q_range=(0.3, 2.0), p_range=(-2.0, 2.0), q_ranges=None):
    """A (num, 2*dof) float64 array, one seeded point (q, p) per row.

    One draw fills it row by row, with each column scaled to its own window
    (per-slot position windows via q_ranges): the same values, in the same
    order, as one ``rng.uniform(lo, hi)`` call per coordinate.
    """
    rng = make_rng(seed)
    if q_ranges is None:
        q_ranges = [q_range] * dof
    windows = list(q_ranges) + [p_range] * dof
    lo, hi = zip(*windows)
    return rng.uniform(lo, hi, size=(num, 2 * dof))


def sample_scalars(num, seed, lo, hi):
    """A (num,) float64 array of seeded values in [lo, hi)."""
    return make_rng(seed).uniform(lo, hi, size=num)
