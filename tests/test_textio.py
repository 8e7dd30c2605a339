"""Text format helpers: %.17g and the base64 tensor codec round trip float64
bit-for-bit, and the container refuses any file whose end line is not the
sha256 of the rest."""

import base64
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import without_last_value
from helpers import joined_tensor_file, joined_tensor_line
from morphdet.embedder import init_params
from morphdet.textio import (
    fmt,
    fmt_vector,
    parse_floats,
    parse_tensor,
    read_record_file,
    read_tensor_file,
    sha256_file,
    tensor_blocks,
    tensor_line,
    write_record_file,
    write_tensor_file,
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


# Awkward values fmt_vector must write as a %.17g format string does, as semantics.txt has always held them:
# signed zero, subnormals, the largest finite magnitudes, and the non-finite values.
AWKWARD = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308,
           float("nan"), float("inf"), float("-inf"))


@given(st.lists(st.floats() | st.sampled_from(AWKWARD), max_size=40))
def test_fmt_vector_writes_what_a_percent_format_writes(values):
    assert fmt_vector(values) == " ".join(["%.17g"] * len(values)) % tuple(values)


def test_tensor_lines_keep_their_bytes():
    assert tensor_line("w", np.array([[0.1, -0.0, 1e-320], [1 / 3, -1e308, 2.0**-1074]])) == (
        "tensor w 2 3 mpmZmZmZuT8AAAAAAAAAgOgHAAAAAAAAVVVVVVVV1T+gyOuF88zh/wEAAAAAAAAA"
    )
    assert tensor_line("b", np.array([np.pi, 1e22, -2.5])) == "tensor b 1 3 GC1EVPshCUCS1U0Gz/CARAAAAAAAAATA"
    # The data is the base64 of the row-major little-endian float64 bytes; a zero-row tensor has none.
    assert tensor_line("b", np.array([np.pi, 1e22, -2.5])).endswith(
        base64.b64encode(struct.pack("<3d", np.pi, 1e22, -2.5)).decode("ascii")
    )
    assert tensor_line("e", np.zeros((0, 3))) == "tensor e 0 3 "
    # The writer encodes what it is given, nan included, so a test can build a file the reader refuses.
    assert tensor_line("n", np.array([np.nan, np.inf])) == "tensor n 1 2 AAAAAAAA+H8AAAAAAADwfw=="


def test_vector_round_trip_bitwise():
    rng = np.random.default_rng(0)
    vec = rng.normal(size=32) * 10 ** rng.uniform(-200, 200, size=32)
    back = parse_floats(fmt_vector(vec))
    assert np.array_equal(back, vec)


def test_parse_floats_reads_a_whitespace_separated_string():
    assert np.array_equal(parse_floats("1 2.5 -3"), np.array([1.0, 2.5, -3.0]))


def test_parse_floats_rejects_non_finite_values():
    for bad in ("1 nan 2", "inf", "-inf 0", "1e999"):
        with pytest.raises(ValueError):
            parse_floats(bad)
    # Finite values whose sum overflows are still finite.
    assert np.array_equal(parse_floats("1e308 1e308"), [1e308, 1e308])


def test_parse_floats_rejects_tokens_that_fmt_never_writes():
    # float() reads each of these (10.0, 1.0, 12.0, 1.0), so only the token check refuses them.
    for bad in ("1_0", "0.5 ١", "１２", "1e٠"):
        with pytest.raises(ValueError, match="holds an underscore or a non-ASCII character"):
            parse_floats(bad)


def test_tensor_round_trip_2d():
    rng = np.random.default_rng(1)
    arr = rng.normal(size=(3, 5)) * 10 ** rng.uniform(-300, 300, size=(3, 5))
    arr[0, :3] = -0.0, 5e-324, 1.7976931348623157e308
    name, back = parse_tensor(tensor_line("w", arr))
    assert name == "w"
    assert back.shape == (3, 5) and back.dtype == np.float64
    assert back.tobytes() == arr.tobytes()


def test_tensor_round_trip_1d_as_single_row():
    arr = np.array([1.5, -2.5, 1e-17])
    name, back = parse_tensor(tensor_line("b", arr))
    assert back.shape == (1, 3)
    assert np.array_equal(back[0], arr)
    name, back = parse_tensor(tensor_line("e", np.zeros((0, 4))))
    assert (name, back.shape) == ("e", (0, 4))


def test_parse_tensor_rejects_malformed():
    two = base64.b64encode(struct.pack("<2d", 1.0, 2.0)).decode("ascii")
    with pytest.raises(ValueError, match="malformed"):
        parse_tensor(f"tensor w 2 {two}")
    with pytest.raises(ValueError, match="malformed"):
        parse_tensor(f"matrix w 1 2 {two}")  # the one line keyword is `tensor`
    with pytest.raises(ValueError, match="malformed"):
        parse_tensor(f"tensor w 1 2  {two}")  # one space between fields
    with pytest.raises(ValueError, match="declares 2x2 but carries 16 bytes"):
        parse_tensor(f"tensor w 2 2 {two}")
    with pytest.raises(ValueError, match="malformed"):
        parse_tensor(f"tensor w -1 2 {two}")  # reshape would take -1 as "whatever fits"
    with pytest.raises(ValueError, match="malformed"):
        parse_tensor(f"tensor w \u0662 1 {two}")  # an Arabic-Indic two: a digit to str.isdigit and to int
    for data in (two.rstrip("="), two[:-4] + "!!!=", "1.25", two + "\t"):  # lost padding, not the alphabet, decimal
        with pytest.raises(ValueError, match="not base64"):
            parse_tensor(f"tensor w 1 2 {data}")
    with pytest.raises(ValueError, match="non-finite"):
        parse_tensor(tensor_line("w", [1.0, np.nan]))


def test_sha256_file_matches_hashlib(tmp_path):
    payload = b"morphdet test payload\n" * 1000
    path = tmp_path / "blob.bin"
    path.write_bytes(payload)
    assert sha256_file(path) == hashlib.sha256(payload).hexdigest()


def test_tensor_blocks_keep_file_order_and_refuse_broken_blocks():
    lines = [tensor_line("a", np.eye(2)), tensor_line("b", np.ones(3))]
    blocks = tensor_blocks(lines)
    assert list(blocks) == ["a", "b"]
    assert np.array_equal(blocks["a"], np.eye(2)) and blocks["b"].shape == (1, 3)
    with pytest.raises(ValueError, match="duplicate"):
        tensor_blocks(lines + lines[:1])
    with pytest.raises(ValueError, match="malformed"):
        tensor_blocks(["matrix" + lines[0].removeprefix("tensor"), lines[1]])


def test_record_file_round_trip_and_framing(tmp_path):
    path = tmp_path / "rec.txt"
    write_record_file(path, "kind v2", "meta", {"b": 2, "a": 1}, ["x 1", "y 2"])
    raw = path.read_bytes()
    text = raw.decode("utf-8")
    write_record_file(tmp_path / "sorted.txt", "kind v2", "meta", {"a": 1, "b": 2}, ["x 1", "y 2"])
    assert raw == (tmp_path / "sorted.txt").read_bytes()
    lines = text.splitlines()
    assert lines[:4] == ["kind v2", 'meta {"a": 1, "b": 2}', "x 1", "y 2"]
    head = raw[: raw.rindex(b"end sha256=")]
    assert lines[4] == f"end sha256={hashlib.sha256(head).hexdigest()}" and len(lines) == 5
    assert read_record_file(path, "kind v2", "meta") == ({"a": 1, "b": 2}, ["x 1", "y 2"])
    spoiled = {
        "other kind": ["other v2"] + lines[1:],
        "other meta key": [lines[0], "config {}"] + lines[2:],
        "edited meta": [lines[0], 'meta {"a": 1, "b": 3}'] + lines[2:],
        "dropped line": lines[:2] + lines[3:],
        "repeated line": lines[:3] + lines[2:],
        "edited line": lines[:2] + ["x 2"] + lines[3:],
        "no end": lines[:-1],
        "bare end": lines[:-1] + ["end"],
        "text after end": lines + ["x 3"],
        "second end": lines + lines[-1:],
        "empty file": [],
    }
    for name, spoilt in spoiled.items():
        path.write_text("".join(line + "\n" for line in spoilt), encoding="utf-8")
        with pytest.raises(ValueError):
            read_record_file(path, "kind v2", "meta")
    path.write_bytes(raw.rstrip(b"\n"))
    with pytest.raises(ValueError, match="sha256"):
        read_record_file(path, "kind v2", "meta")
    # A file whose digest holds is still refused for what its checks see.
    framed = {
        "other meta key": (("kind v2", "config", {}, ["x 1"]), "line 2 is not a 'meta' line"),
        "meta not an object": (("kind v2", "meta", [1], ["x 1"]), "not a JSON object"),
        "blank body line": (("kind v2", "meta", {}, ["x 1", " "]), "line 4 is blank"),
        "older version": (("kind v1", "meta", {}, ["x 1"]), "'kind v1' is an older format than 'kind v2'"),
    }
    for name, (framing, message) in framed.items():
        write_record_file(path, *framing)
        with pytest.raises(ValueError, match=message):
            read_record_file(path, "kind v2", "meta")
    # A meta line that is not JSON at all, framed by hand, since the writer always writes JSON.
    head = b"kind v2\nmeta {oops\nx 1\n"
    path.write_bytes(head + f"end sha256={hashlib.sha256(head).hexdigest()}\n".encode("utf-8"))
    with pytest.raises(ValueError) as refusal:
        read_record_file(path, "kind v2", "meta")
    assert str(refusal.value) == f"{path}: meta line is not a JSON object"


def test_tensor_file_round_trip_and_refusals_name_the_path_once(tmp_path):
    path = tmp_path / "tensors.txt"
    lines = [tensor_line("a", np.eye(2)), tensor_line("b", np.ones(3))]
    write_record_file(path, "kind v3", "meta", {"n": 2}, lines)
    meta, tensors = read_tensor_file(path, "kind v3", "meta")
    assert meta == {"n": 2} and list(tensors) == ["a", "b"]
    assert np.array_equal(tensors["a"], np.eye(2)) and np.array_equal(tensors["b"], np.ones((1, 3)))
    spoiled = {  # the tensor codec's refusals, and one of the container's own
        "lost value": ("kind v3", [without_last_value(lines[0]), lines[1]]),
        "nan": ("kind v3", [tensor_line("a", [[np.nan, 0.0], [0.0, 1.0]]), lines[1]]),
        "not base64": ("kind v3", [lines[0].replace("A", "*", 1), lines[1]]),
        "duplicate": ("kind v3", lines + lines[:1]),
        "malformed header": ("kind v3", ["matrix" + lines[0].removeprefix("tensor"), *lines[1:]]),
        "older version": ("kind v2", lines),
    }
    for name, (header, body) in spoiled.items():
        write_record_file(path, header, "meta", {}, body)
        with pytest.raises(ValueError) as refusal:
            read_tensor_file(path, "kind v3", "meta")
        message = str(refusal.value)
        assert message.startswith(f"{path}: ") and message.count(str(path)) == 1, name


def _awkward_tensors():
    """Arrays the writers must encode as their float64 bytes: a zero-row and a 1-D tensor, a non-contiguous
    column view (a network's feature head weight), float32, big-endian and integer input, and a 0-d value."""
    rng = np.random.default_rng(2)
    head = init_params(6, (5,), 3, seed=1).feature_head.weight
    assert not head.flags.c_contiguous
    wide = rng.normal(size=(4, 7)) * 10 ** rng.uniform(-300, 300, size=(4, 7))
    return [
        ("empty", np.zeros((0, 3))),
        ("row", np.array([np.pi, -0.0, 5e-324])),
        ("feature_head.weight", head),
        ("single", rng.normal(size=(3, 2)).astype(np.float32)),
        ("big", wide.astype(">f8")),
        ("ids", np.arange(5, dtype=np.int64).reshape(5, 1)),
        ("scalar", np.float64(2.5)),
        ("wide", wide),
    ]


def test_write_tensor_file_writes_the_joined_text_bytes(tmp_path):
    tensors = _awkward_tensors()
    write_tensor_file(tmp_path / "streamed.txt", "kind v3", "meta", {"b": [1, 2], "a": "x"}, tensors)
    joined_tensor_file(tmp_path / "joined.txt", "kind v3", "meta", {"b": [1, 2], "a": "x"}, tensors)
    raw = (tmp_path / "streamed.txt").read_bytes()
    assert raw == (tmp_path / "joined.txt").read_bytes()
    assert b"\ntensor empty 0 3 \ntensor row 1 3 " in raw
    for name, arr in tensors:
        assert tensor_line(name, arr) == joined_tensor_line(name, arr)
    meta, back = read_tensor_file(tmp_path / "streamed.txt", "kind v3", "meta")
    assert meta == {"a": "x", "b": [1, 2]} and list(back) == [name for name, _ in tensors]
    for name, arr in tensors:
        assert back[name].tobytes() == np.atleast_2d(np.asarray(arr, dtype="<f8")).tobytes()
    # A lazy iterable of pairs is read once, and no pair is needed twice.
    write_tensor_file(tmp_path / "lazy.txt", "kind v3", "meta", {"b": [1, 2], "a": "x"}, iter(tensors))
    assert (tmp_path / "lazy.txt").read_bytes() == raw


def test_write_tensor_file_refuses_a_3d_array_before_the_file_opens(tmp_path):
    path = tmp_path / "kept.txt"
    write_tensor_file(path, "kind v3", "meta", {}, [("a", np.eye(2))])
    kept = path.read_bytes()
    with pytest.raises(ValueError, match=r"tensor 'cube' must be 1-D or 2-D, got shape \(2, 2, 2\)"):
        write_tensor_file(path, "kind v3", "meta", {}, [("a", np.eye(2)), ("cube", np.zeros((2, 2, 2)))])
    assert path.read_bytes() == kept
    with pytest.raises(ValueError, match="must be 1-D or 2-D"):
        tensor_line("cube", np.zeros((2, 2, 2)))
