"""Shared numeric primitives: unit normalization and the elementwise
smooth-L1 kernel of box regression, which gives value and slope together,
plus the error types for mismatched shapes, near-zero norms, empty and non-finite inputs.

Everything operates on plain float64 numpy arrays and is pure; bad input
raises instead of propagating garbage.
"""

from __future__ import annotations

import numpy as np

NORM_EPS = 1e-12


class DimensionMismatch(ValueError):
    """Two operands that must share a shape do not."""


class DegenerateVector(ValueError):
    """A vector whose norm is too small to normalize."""


class EmptyInput(ValueError):
    """An aggregate operation received no elements."""


class NonFiniteValue(ValueError):
    """A NaN or an infinity where a finite value is required."""


def l2_normalize(a) -> np.ndarray:
    """Scale to unit Euclidean norm, taken from numpy's own sum of squares
    (not BLAS), so its bits do not depend on the BLAS kernel. Rejects a norm
    <= 1e-12, and one that is not finite (a sum of squares that overflows)."""
    a = np.asarray(a, dtype=np.float64)
    norm = float(np.sqrt(np.add.reduce(a * a, axis=None)))
    if not NORM_EPS < norm < np.inf:
        raise DegenerateVector(f"cannot normalize: norm {norm!r} is not a finite value > {NORM_EPS}")
    return a / norm


def smooth_l1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise smooth L1 and its slope: 0.5 * x**2 and x inside |x| < 1, |x| - 0.5
    and sign(x) outside; value and slope agree at the joins. The slope is x clipped to
    [-1, 1], and |(x - slope / 2) * slope| rounds as each piece does, since x - x / 2
    is exact (the abs only clears the sign of the zero that x = -0.0 gives)."""
    x = np.asarray(x, dtype=np.float64)
    slope = np.minimum(np.maximum(x, -1.0), 1.0)
    value = x - 0.5 * slope
    value *= slope
    return np.abs(value, out=value), slope
