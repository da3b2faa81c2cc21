"""Nested-dual references that the package itself no longer uses."""

import numpy as np

from extham import duals as dm


def nth_derivative(f, x, order):
    """Iterated exact derivative by nested duals; nesting depth equals order."""
    if order == 0:
        return f(x)
    return dm.derivative(lambda t: nth_derivative(f, t, order - 1), x)


def leaf_values(x):
    """x with every Dual, Jet and Batch layer spelled out, tags left aside."""
    if isinstance(x, dm.Dual):
        return ("dual", leaf_values(x.val), leaf_values(x.dot))
    if isinstance(x, dm.Jet):
        return ("jet", [leaf_values(c) for c in x.c])
    if isinstance(x, np.ndarray):
        return ("batch", x.tolist())
    if isinstance(x, (tuple, list)):
        return [leaf_values(v) for v in x]
    return x
