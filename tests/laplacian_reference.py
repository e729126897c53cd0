"""The full n x n Laplacian, built entry by entry: the reference the
library's structured and dense consensus steps are checked against.

A model's Laplacian is the Kronecker sum of its factors' circulant
matrices, all sharing the asymmetric factor a; node indices are
mixed-radix with dimension 1 slowest-varying, and a one-factor model is
its factor's matrix.  It takes order**2 floats, so it suits small models.
"""

from __future__ import annotations

import numpy as np


def circulant_reference(side: int, radius: int, a: float) -> np.ndarray:
    """One factor's Laplacian entry by entry: radius on the diagonal, the
    negated forward weight at offsets +1..+radius, the negated backward
    weight at offsets -1..-radius."""
    lap = np.zeros((side, side))
    for i in range(side):
        lap[i, i] = float(radius)
        for k in range(1, radius + 1):
            lap[i, (i + k) % side] = (-1.0 + a) / 2.0
            lap[i, (i - k) % side] = (-1.0 - a) / 2.0
    return lap


def kronecker_sum_reference(factors, a: float) -> np.ndarray:
    """L_1 (+) L_2 (+) ..., dimension 1 slowest: L (x) I + I (x) L_next."""
    mat = circulant_reference(*factors[0], a)
    for side, radius in factors[1:]:
        nxt = circulant_reference(side, radius, a)
        mat = np.kron(mat, np.eye(side)) + np.kron(np.eye(mat.shape[0]), nxt)
    return mat


def reference_laplacian(model) -> np.ndarray:
    """The model's Laplacian, node i at row i."""
    return kronecker_sum_reference(model.factors, model.a)
