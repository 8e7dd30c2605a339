"""Shared numeric primitives.

Everything operates on plain float64 numpy arrays, is pure, and keeps exact
error behaviour: mismatched lengths, near-zero norms and empty reductions
raise instead of propagating garbage.
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


def dot(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


def l2_normalize(a) -> np.ndarray:
    """Scale to unit Euclidean norm. Rejects vectors with norm <= 1e-12."""
    a = np.asarray(a, dtype=np.float64)
    norm = float(np.linalg.norm(a))
    if not norm > NORM_EPS:
        raise DegenerateVector(f"cannot normalize: norm {norm!r} <= {NORM_EPS}")
    return a / norm


def log_sum_exp(xs) -> float:
    """log(sum(exp(xs))), shifted by the max so large logits cannot overflow.

    Exact for a single element (returns it unchanged).
    """
    arr = np.asarray(xs, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyInput("log_sum_exp of no elements")
    m = float(np.max(arr))
    return m + float(np.log(np.sum(np.exp(arr - m))))


def smooth_l1(x: float) -> float:
    """Quadratic inside |x| < 1, linear outside; value and slope agree at the joins."""
    x = float(x)
    if abs(x) < 1.0:
        return 0.5 * x * x
    return abs(x) - 0.5


def smooth_l1_grad(x: float) -> float:
    """Derivative of smooth_l1: x inside the quadratic zone, sign(x) outside."""
    x = float(x)
    if abs(x) < 1.0:
        return x
    return math.copysign(1.0, x)


def smooth_l1_array(x: np.ndarray) -> np.ndarray:
    """Elementwise smooth_l1 for batched residuals."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)


def smooth_l1_grad_array(x: np.ndarray) -> np.ndarray:
    """Elementwise smooth_l1 derivative for batched residuals."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(np.abs(x) < 1.0, x, np.sign(x))
