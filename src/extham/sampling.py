"""Seeded phase-space sampling on the counter-based Philox generator.

Each sampler returns the float64 array it draws. Positions are drawn from
the windows q_ranges gives, one per slot, or else from [0.3, 2.0] (bounded
away from u = 0 and the gamma poles of the catalog systems); momenta always
from [-2, 2]. The generator, Philox4x64-10 (Salmon, Moraes, Dror & Shaw,
SC'11), is computed here over uint64 arrays, equal bit for bit to numpy's
``Generator(Philox(key=seed)).uniform``. It is deterministic across
platforms, so reports quoting a seed are reproducible byte for byte.
"""

import math

import numpy as np

RNG_NAME = "philox4x64-10"

_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_KEY_BUMPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = 0xFFFFFFFF


def _uniform(seed, lo, hi, shape):
    """lo + (hi - lo) * u row by row, each u = (w >> 11) * 2**-53 for the next word w of
    Philox4x64-10 keyed by seed: counter block c = 1, 2, ... gives words 4(c-1) to 4c-1."""
    n = math.prod(shape)
    mul = np.zeros((2, -(-n // 4)), dtype=np.uint64)  # words (x0, x2) of each block, multiplied
    mul[0] = np.arange(1, mul.shape[1] + 1)
    xor = np.zeros_like(mul)  # words (x1, x3), xored into the swapped high words
    # column constants, built per draw so that an import that never draws allocates none;
    # row 0 serves word x0 and key word 0, row 1 word x2 and key word 1
    m = np.array(_MULTIPLIERS, dtype=np.uint64)[:, None]
    m_low, m_high = m & _LOW32, m >> 32
    key = np.array([seed % 2**64, seed >> 64], dtype=np.uint64)[:, None]
    bumps = np.array(_KEY_BUMPS, dtype=np.uint64)[:, None]
    for round_key in key + np.arange(10, dtype=np.uint64)[:, None, None] * bumps:
        # the high word of each 128-bit product from 32-bit halves; the low word wraps
        a0, a1 = mul & _LOW32, mul >> 32
        mid = a0 * m_high + ((a0 * m_low) >> 32)
        high = a1 * m_high + (mid >> 32) + ((a1 * m_low + (mid & _LOW32)) >> 32)
        mul, xor = high[::-1] ^ xor ^ round_key, (mul * m)[::-1]
    u = (np.stack([mul, xor], axis=1).reshape(4, -1).T.ravel()[:n] >> 11) * 2.0**-53
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    return lo + (hi - lo) * u.reshape(shape)


def sample_points(num, seed, dof, q_ranges=None):
    """A (num, 2*dof) float64 array, one seeded point (q, p) per row.

    One draw fills it row by row, with each column scaled to its own window:
    the same values, in the same order, as one ``rng.uniform(lo, hi)`` call
    per coordinate.
    """
    windows = list(q_ranges or [(0.3, 2.0)] * dof) + [(-2.0, 2.0)] * dof
    lo, hi = zip(*windows)
    return _uniform(seed, lo, hi, (num, 2 * dof))


def sample_scalars(num, seed, lo, hi):
    """A (num,) float64 array of seeded values in [lo, hi)."""
    return _uniform(seed, lo, hi, (num,))
