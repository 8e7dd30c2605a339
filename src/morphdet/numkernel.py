"""Shared numeric primitives: unit normalization and the elementwise
smooth-L1 kernel of box regression, which gives value and slope together
(smooth_l1_slope gives the slope alone, which is all a gradient reads),
plus the error types for mismatched shapes, near-zero norms, empty and non-finite inputs.

Everything operates on plain float64 numpy arrays and is pure; bad input
raises instead of propagating garbage.
"""

from __future__ import annotations

import math

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


def l2_normalize(a, label=None) -> np.ndarray:
    """Scale a vector, or each row of a stack, to unit Euclidean norm, taken from numpy's own sum of squares
    (not BLAS), so its bits depend neither on the BLAS kernel nor on the stack a row is in. Rejects a norm
    <= 1e-12 or not finite (a sum of squares that overflows), naming the first such row by label(row), also where
    warnings are errors."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    try:
        if a.ndim < 2 or a.size == a.shape[-1]:  # one row divides by a scalar norm: the stack form's bits, sooner
            norms = [norm := math.sqrt(np.add.reduce(a * a, axis=None))]
        else:
            norms = (norm := np.sqrt(np.add.reduce(a * a, axis=-1, keepdims=True))).ravel().tolist()
    except RuntimeWarning:  # warnings-as-errors raised an overflow: square again quietly, for the check to refuse
        with np.errstate(over="ignore"):
            return l2_normalize(a, label)
    for row, value in enumerate(norms):
        if not NORM_EPS < value < np.inf:
            where = f"{label(row)}: " if label else ""
            raise DegenerateVector(f"{where}cannot normalize: norm {value!r} is not a finite value > {NORM_EPS}")
    return a / norm


def smooth_l1_slope(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """smooth_l1's slope alone, x clipped to [-1, 1], written into `out` if one is given."""
    return np.minimum(np.maximum(x, -1.0, out=out), 1.0, out=out)


def smooth_l1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise smooth L1 and its slope: 0.5 * x**2 and x inside |x| < 1, |x| - 0.5
    and sign(x) outside; value and slope agree at the joins. The slope is x clipped to
    [-1, 1], and |(x - slope / 2) * slope| rounds as each piece does, since x - x / 2
    is exact (the abs only clears the sign of the zero that x = -0.0 gives)."""
    x = np.asarray(x, dtype=np.float64)
    slope = smooth_l1_slope(x)
    value = x - 0.5 * slope
    value *= slope
    return np.abs(value, out=value), slope
