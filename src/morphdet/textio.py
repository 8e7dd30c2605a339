"""The text container of the universe, dataset and checkpoint files, and
the float helpers their bodies use.

A container file is a header line, a '<meta key> <sorted JSON object>' line,
the body lines and a last line `end`. A file cut short or with text after
`end` is refused, never loaded in part. Floats are written with %.17g, which
round-trips float64 exactly, so every format is bit-stable across save/load.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

END = "end"


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def fmt_vector(vec) -> str:
    return " ".join(fmt(x) for x in np.asarray(vec, dtype=np.float64))


def parse_floats(tokens) -> np.ndarray:
    """Tokens (or one whitespace-separated string) as float64; NaN and
    infinities are rejected, so no non-finite value enters from a file."""
    if isinstance(tokens, str):
        tokens = tokens.split()
    values = np.array(tokens, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite value among {values.size} floats")
    return values


def tensor_lines(name: str, arr: np.ndarray, keyword: str = "tensor") -> list[str]:
    """Two lines per tensor: a '<keyword> <name> <rows> <cols>' header, then
    the row-major values. 1-D arrays are stored as a single row."""
    mat = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    if mat.ndim != 2:
        raise ValueError(f"tensor {name!r} must be 1-D or 2-D, got shape {arr.shape}")
    header = f"{keyword} {name} {mat.shape[0]} {mat.shape[1]}"
    return [header, " ".join(fmt(x) for x in mat.ravel())]


def parse_tensor(header: str, data: str, keyword: str = "tensor") -> tuple[str, np.ndarray]:
    parts = header.split()
    if len(parts) != 4 or parts[0] != keyword:
        raise ValueError(f"malformed {keyword} header: {header!r}")
    name, rows, cols = parts[1], int(parts[2]), int(parts[3])
    values = parse_floats(data)
    if values.size != rows * cols:
        raise ValueError(
            f"{keyword} {name!r} declares {rows}x{cols} but carries {values.size} values"
        )
    return name, values.reshape(rows, cols)


def tensor_blocks(lines, keyword: str = "tensor") -> dict[str, np.ndarray]:
    """Inverse of concatenated tensor_lines: name -> 2-D array, in file order.
    A header without its data line or a repeated name is an error."""
    if len(lines) % 2:
        raise ValueError(f"dangling {keyword} header: {lines[-1]!r}")
    out: dict[str, np.ndarray] = {}
    for header, data in zip(lines[0::2], lines[1::2]):
        name, arr = parse_tensor(header, data, keyword)
        if name in out:
            raise ValueError(f"duplicate {keyword} {name!r}")
        out[name] = arr
    return out


def record_text(header: str, meta_key: str, meta: dict, body) -> str:
    """One container as text: header, meta line, body lines, `end`."""
    lines = [header, f"{meta_key} {json.dumps(meta, sort_keys=True)}", *body, END]
    return "\n".join(lines) + "\n"


def write_record_file(path, header: str, meta_key: str, meta: dict, body) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(record_text(header, meta_key, meta, body))


def read_record_file(path, header: str, meta_key: str) -> tuple[dict, list[str]]:
    """Inverse of write_record_file: (meta, body lines). Raises ValueError
    unless the file opens with `header` and a JSON-object meta line, ends with
    `end` as its last line, and holds no blank line or other `end` between."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: not a {header!r} file")
    if len(lines) < 3 or lines[-1] != END:
        raise ValueError(f"{path}: last line is not {END!r} (truncated file or trailing text)")
    key, _, payload = lines[1].partition(" ")
    if key != meta_key:
        raise ValueError(f"{path}: line 2 is not a {meta_key!r} line")
    meta = json.loads(payload)
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: {meta_key} line is not a JSON object")
    body = lines[2:-1]
    for number, line in enumerate(body, start=3):
        if line == END or not line.strip():
            raise ValueError(f"{path}: line {number} is blank or a second {END!r}")
    return meta, body


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
