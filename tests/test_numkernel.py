"""Numeric primitive contracts, checked against naive reference math and a
hand table."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphdet.numkernel import DegenerateVector, l2_normalize, smooth_l1, smooth_l1_slope

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


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
    stack = np.ones((4, 3))
    stack[2], stack[3] = 0.0, np.nan  # two bad rows: the first is named, by its label if one is given
    with pytest.raises(DegenerateVector, match=r"^row 2: cannot normalize: norm 0\.0 is not a finite value > 1e-12$"):
        l2_normalize(stack, lambda row: f"row {row}")
    with pytest.raises(DegenerateVector, match=r"^cannot normalize: norm 0\.0 "):
        l2_normalize(stack)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("row", [[1e308, 1.0], [1e154, 1e154]], ids=["square_overflows", "sum_overflows"])
def test_l2_normalize_refuses_an_overflowing_row_by_name_under_warnings_as_errors(row):
    """An overflow in the sum of squares, alone or in a stack, is refused by the norm check, naming its row,
    not raised as numpy's warning."""
    with pytest.raises(DegenerateVector, match=r"^row 0: cannot normalize: norm inf "):
        l2_normalize(np.array([row]), lambda k: f"row {k}")
    with pytest.raises(DegenerateVector, match=r"^row 1: cannot normalize: norm inf "):
        l2_normalize(np.array([[1.0, 2.0], row, [3.0, 4.0]]), lambda k: f"row {k}")


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(0, 40), width=st.sampled_from([1, 2, 7, 8, 9, 16, 31, 127, 128, 129, 300, 4099]),
       scale=st.sampled_from([1e-9, 1e-3, 1.0, 1e100]), seed=st.integers(0, 2**32 - 1))
def test_l2_normalize_scales_each_row_of_a_stack_as_it_scales_the_row_alone(rows, width, scale, seed):
    """A stack's rows come out bit for bit as each row did alone, from its own sum of squares and one division."""
    rng = np.random.default_rng(seed)
    stack = rng.uniform(1.0, 2.0, size=(rows, width)) * rng.choice([-1.0, 1.0], size=(rows, width)) * scale
    alone = [row / float(np.sqrt(np.add.reduce(row * row, axis=None))) for row in stack]
    assert l2_normalize(stack).tobytes() == np.array(alone).reshape(rows, width).tobytes()


def test_l2_normalize_matches_the_library_norm_over_ten_decades():
    rng = np.random.default_rng(16)
    for scale in 10.0 ** np.arange(-5, 5):
        for _ in range(40):
            v = scale * rng.normal(size=rng.integers(1, 80))
            assert np.max(np.abs(l2_normalize(v) - v / np.linalg.norm(v))) <= 4e-16


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_l2_normalize_refuses_a_sum_of_squares_that_overflows():
    # The norm, 1.4e200, is finite, but its square is not; scaling by an
    # infinite norm would return zeros.
    with pytest.raises(DegenerateVector):
        l2_normalize([1e200, 1e200])


def naive_smooth_l1(x: float) -> float:
    return 0.5 * x * x if abs(x) < 1.0 else abs(x) - 0.5


def naive_smooth_l1_grad(x: float) -> float:
    return x if abs(x) < 1.0 else (1.0 if x > 0 else -1.0)


def test_smooth_l1_hand_table():
    x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    assert smooth_l1(x)[0].tolist() == [1.5, 0.5, 0.125, 0.125, 0.5, 1.5]
    assert smooth_l1(x)[1].tolist() == [-1.0, -1.0, -0.5, 0.5, 1.0, 1.0]


def test_smooth_l1_piecewise_values():
    x = np.linspace(-3, 3, 61)
    assert np.allclose(smooth_l1(x)[0], [naive_smooth_l1(v) for v in x], rtol=0.0, atol=1e-15)


def test_smooth_l1_continuous_at_joins():
    below = np.nextafter(1.0, 0.0)
    assert smooth_l1(np.array([1.0, below, -below]))[0] == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)
    assert smooth_l1(np.array([1.0, below, -1.0]))[1] == pytest.approx([1.0, 1.0, -1.0], abs=1e-12)


def test_smooth_l1_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-6
    x = rng.uniform(-3, 3, size=100)
    x = x[np.abs(np.abs(x) - 1.0) >= 10 * h]
    fd = (smooth_l1(x + h)[0] - smooth_l1(x - h)[0]) / (2 * h)
    assert np.allclose(smooth_l1(x)[1], fd, rtol=0.0, atol=1e-8)


@given(finite)
def test_smooth_l1_symmetry(x):
    pair = np.array([x, -x])
    value, grad = smooth_l1(pair)
    assert value[0] == value[1]
    assert grad[0] == -grad[1]


def test_array_forms_match_scalar_forms():
    rng = np.random.default_rng(4)
    x = rng.uniform(-4, 4, size=64)
    assert np.array_equal(smooth_l1(x)[0], np.array([naive_smooth_l1(v) for v in x]))
    assert np.array_equal(smooth_l1(x)[1], np.array([naive_smooth_l1_grad(v) for v in x]))
    out = np.full((8, 8), np.nan)
    assert smooth_l1_slope(x.reshape(8, 8), out=out) is out  # the gradient's form: the slope alone, in place
    assert out.ravel().tobytes() == smooth_l1(x)[1].tobytes()
