"""Text format helpers: %.17g round trips float64 bit-for-bit."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from morphdet.textio import (
    fmt,
    fmt_vector,
    parse_floats,
    parse_tensor,
    read_record_file,
    record_text,
    sha256_file,
    tensor_blocks,
    tensor_lines,
    write_record_file,
)


def test_fmt_round_trips_awkward_floats():
    cases = [
        0.0, -0.0, 1.0, -1.0, 1e-300, -1e300, np.pi, 1 / 3, np.nextafter(1.0, 2.0),
        5e-324, 1.7976931348623157e308,
    ]
    for x in cases:
        back = float(fmt(x))
        assert back == x or (np.isnan(back) and np.isnan(x))
        assert np.signbit(back) == np.signbit(x)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_round_trip_property(x):
    assert float(fmt(x)) == x


def test_vector_round_trip_bitwise():
    rng = np.random.default_rng(0)
    vec = rng.normal(size=32) * 10 ** rng.uniform(-200, 200, size=32)
    back = parse_floats(fmt_vector(vec))
    assert np.array_equal(back, vec)


def test_parse_floats_accepts_string_or_tokens():
    assert np.array_equal(parse_floats("1 2.5 -3"), np.array([1.0, 2.5, -3.0]))
    assert np.array_equal(parse_floats(["1", "2.5"]), np.array([1.0, 2.5]))


def test_parse_floats_rejects_non_finite_values():
    for bad in ("1 nan 2", "inf", "-inf 0", "1e999"):
        with pytest.raises(ValueError):
            parse_floats(bad)
    # Finite values whose sum overflows are still finite.
    assert np.array_equal(parse_floats("1e308 1e308"), [1e308, 1e308])


def test_tensor_round_trip_2d():
    rng = np.random.default_rng(1)
    arr = rng.normal(size=(3, 5))
    header, data = tensor_lines("w", arr)
    name, back = parse_tensor(header, data)
    assert name == "w"
    assert back.shape == (3, 5)
    assert np.array_equal(back, arr)


def test_tensor_round_trip_1d_as_single_row():
    arr = np.array([1.5, -2.5, 1e-17])
    header, data = tensor_lines("b", arr)
    name, back = parse_tensor(header, data)
    assert back.shape == (1, 3)
    assert np.array_equal(back[0], arr)


def test_parse_tensor_rejects_malformed():
    with pytest.raises(ValueError):
        parse_tensor("tensor w 2", "1 2")
    with pytest.raises(ValueError):
        parse_tensor("matrix w 1 2", "1 2")
    with pytest.raises(ValueError):
        parse_tensor("tensor w 2 2", "1 2 3")


def test_sha256_file_matches_hashlib(tmp_path):
    payload = b"morphdet test payload\n" * 1000
    path = tmp_path / "blob.bin"
    path.write_bytes(payload)
    assert sha256_file(path) == hashlib.sha256(payload).hexdigest()


def test_tensor_blocks_share_one_parser_across_keywords():
    lines = tensor_lines("a", np.eye(2), "matrix") + tensor_lines("b", np.ones(3), "matrix")
    blocks = tensor_blocks(lines, "matrix")
    assert list(blocks) == ["a", "b"]
    assert np.array_equal(blocks["a"], np.eye(2)) and blocks["b"].shape == (1, 3)
    with pytest.raises(ValueError, match="dangling"):
        tensor_blocks(lines[:3], "matrix")
    with pytest.raises(ValueError, match="duplicate"):
        tensor_blocks(lines[:2] + lines[:2], "matrix")
    with pytest.raises(ValueError, match="malformed"):
        tensor_blocks(lines, "tensor")


def test_record_file_round_trip_and_framing(tmp_path):
    path = tmp_path / "rec.txt"
    write_record_file(path, "kind v1", "meta", {"b": 2, "a": 1}, ["x 1", "y 2"])
    text = path.read_text(encoding="utf-8")
    assert text == record_text("kind v1", "meta", {"a": 1, "b": 2}, ["x 1", "y 2"])
    assert text.splitlines()[1] == 'meta {"a": 1, "b": 2}'
    assert read_record_file(path, "kind v1", "meta") == ({"a": 1, "b": 2}, ["x 1", "y 2"])
    lines = text.splitlines()
    spoiled = {
        "other header": ["kind v2"] + lines[1:],
        "other meta key": [lines[0], "config {}"] + lines[2:],
        "meta not an object": [lines[0], "meta [1]"] + lines[2:],
        "meta not json": [lines[0], "meta {"] + lines[2:],
        "no end": lines[:-1],
        "text after end": lines + ["x 3"],
        "second end": lines + ["end"],
        "blank body line": lines[:3] + [" "] + lines[3:],
        "empty file": [],
    }
    for name, spoilt in spoiled.items():
        path.write_text("".join(line + "\n" for line in spoilt), encoding="utf-8")
        with pytest.raises(ValueError):
            read_record_file(path, "kind v1", "meta")
