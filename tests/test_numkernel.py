"""Numeric primitive contracts, checked against naive reference math."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from morphdet.numkernel import (
    DegenerateVector,
    DimensionMismatch,
    EmptyInput,
    dot,
    l2_normalize,
    log_sum_exp,
    smooth_l1,
    smooth_l1_array,
    smooth_l1_grad,
    smooth_l1_grad_array,
)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_dot_matches_manual_sum():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(1, 12)
        a, b = rng.normal(size=n), rng.normal(size=n)
        manual = sum(float(x) * float(y) for x, y in zip(a, b))
        assert dot(a, b) == pytest.approx(manual, abs=1e-12)


def test_dot_rejects_length_mismatch():
    with pytest.raises(DimensionMismatch):
        dot([1.0, 2.0], [1.0, 2.0, 3.0])


def test_l2_normalize_unit_norm_and_direction():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 10)) * 10 ** rng.uniform(-3, 3)
        if np.linalg.norm(v) <= 1e-12:
            continue
        u = l2_normalize(v)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(u * np.linalg.norm(v), v, atol=1e-9)


def test_l2_normalize_rejects_near_zero():
    with pytest.raises(DegenerateVector):
        l2_normalize(np.zeros(4))
    with pytest.raises(DegenerateVector):
        l2_normalize(np.full(3, 1e-14))


def test_log_sum_exp_matches_naive_at_moderate_scale():
    rng = np.random.default_rng(2)
    for _ in range(100):
        xs = rng.uniform(-20, 20, size=rng.integers(1, 12))
        naive = math.log(sum(math.exp(x) for x in xs))
        assert log_sum_exp(xs) == pytest.approx(naive, abs=1e-10)


def test_log_sum_exp_survives_huge_logits():
    xs = np.array([1000.0, 999.0, 998.0])
    shifted = math.log(sum(math.exp(x - 1000.0) for x in xs)) + 1000.0
    assert log_sum_exp(xs) == pytest.approx(shifted, abs=1e-9)
    assert math.isfinite(log_sum_exp(np.array([-1000.0, -1001.0])))


def test_log_sum_exp_single_element_exact():
    assert log_sum_exp(np.array([3.7])) == 3.7


def test_log_sum_exp_errors():
    with pytest.raises(EmptyInput):
        log_sum_exp(np.array([]))
    with pytest.raises(DimensionMismatch):
        log_sum_exp(np.zeros((2, 2)))


@given(st.lists(finite, min_size=1, max_size=8), finite)
def test_log_sum_exp_shift_invariance(xs, c):
    base = log_sum_exp(np.array(xs))
    shifted = log_sum_exp(np.array(xs) + c)
    assert shifted == pytest.approx(base + c, abs=1e-9)


def test_smooth_l1_piecewise_values():
    for x in np.linspace(-3, 3, 61):
        expected = 0.5 * x * x if abs(x) < 1 else abs(x) - 0.5
        assert smooth_l1(x) == pytest.approx(expected, abs=1e-15)


def test_smooth_l1_continuous_at_joins():
    assert smooth_l1(1.0) == pytest.approx(0.5, abs=1e-15)
    assert smooth_l1(np.nextafter(1.0, 0.0)) == pytest.approx(0.5, abs=1e-12)
    assert smooth_l1_grad(1.0) == 1.0
    assert smooth_l1_grad(np.nextafter(1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_smooth_l1_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-6
    for x in rng.uniform(-3, 3, size=100):
        if abs(abs(x) - 1.0) < 10 * h:
            continue
        fd = (smooth_l1(x + h) - smooth_l1(x - h)) / (2 * h)
        assert smooth_l1_grad(x) == pytest.approx(fd, abs=1e-8)


@given(finite)
def test_smooth_l1_symmetry(x):
    assert smooth_l1(-x) == smooth_l1(x)
    assert smooth_l1_grad(-x) == -smooth_l1_grad(x)


def test_array_forms_match_scalar_forms():
    rng = np.random.default_rng(4)
    x = rng.uniform(-4, 4, size=64)
    assert np.array_equal(smooth_l1_array(x), np.array([smooth_l1(v) for v in x]))
    assert np.array_equal(smooth_l1_grad_array(x), np.array([smooth_l1_grad(v) for v in x]))
