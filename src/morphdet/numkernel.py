"""Shared numeric primitives: unit normalization and the elementwise
smooth-L1 kernels of box regression, plus the error types for mismatched
shapes, near-zero norms and empty inputs.

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


def l2_normalize(a) -> np.ndarray:
    """Scale to unit Euclidean norm, taken from numpy's own sum of squares
    (not BLAS), so its bits do not depend on the BLAS kernel. Rejects a norm
    <= 1e-12, and one that is not finite (a sum of squares that overflows)."""
    a = np.asarray(a, dtype=np.float64)
    norm = float(np.sqrt(np.add.reduce(a * a, axis=None)))
    if not NORM_EPS < norm < np.inf:
        raise DegenerateVector(f"cannot normalize: norm {norm!r} is not a finite value > {NORM_EPS}")
    return a / norm


def smooth_l1_array(x: np.ndarray) -> np.ndarray:
    """Elementwise smooth L1: 0.5 * x**2 inside |x| < 1, |x| - 0.5 outside;
    value and slope agree at the joins."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)


def smooth_l1_grad_array(x: np.ndarray) -> np.ndarray:
    """Elementwise derivative of smooth_l1_array: x inside |x| < 1, sign(x)
    outside."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(np.abs(x) < 1.0, x, np.sign(x))
