"""The text container of the universe, dataset, checkpoint and exemplar
files, and the float and tensor codec their bodies use.

A container file is a '<kind> v3' header, a '<meta key> <sorted JSON object>'
line, the body lines and a last line 'end sha256=<hex>' over every byte before
it, so a file cut, edited or extended in any line is refused, never loaded in
part. Every body line is one tensor, its float64 bytes in base64, so every
array file is bit-stable across save/load. write_tensor_file, which mirrors
read_tensor_file, hashes and writes a file one tensor at a time as it encodes
it, so no writer holds the joined file. The %.17g helpers, which also
round-trip float64 exactly, write semantics.txt and the CSV tables.
"""

from __future__ import annotations

import base64
import hashlib
import json

import numpy as np

END = "end"


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def fmt_vector(vec) -> str:
    return " ".join(map(fmt, np.asarray(vec, dtype=np.float64).tolist()))


def is_class_id(text: str) -> bool:
    """Whether `text` is a class id as the writers write it: ASCII digits for an integer >= 1, no leading zero."""
    return text.isascii() and text.isdigit() and text[0] != "0"


def check_class_id(value) -> int:
    """`value` as a class id, the value form of is_class_id: a Python or numpy integer >= 1. A bool, a float
    or a str is refused, never rounded or parsed, and so is an integer below 1 (0 is background)."""
    if type(value) is int and value >= 1:  # the usual id, taken after one type test
        return value
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"class id {value!r} is not an integer")
    if value < 1:
        raise ValueError(f"class ids must be >= 1 (0 is background), got {value}")
    return int(value)


def class_id_name(cid) -> str:
    """`cid` as the writers write a class id, refused unless is_class_id takes it back (an integer >= 1)."""
    if not is_class_id(name := str(cid)):
        raise ValueError(f"class id {cid!r} is not an integer >= 1")
    return name


def parse_floats(text: str) -> np.ndarray:
    """A whitespace-separated string as float64. NaN, infinities and a token with an underscore or a
    non-ASCII character, which fmt never writes ('1_0' reads as 10.0), are rejected at the file."""
    tokens = text.split()
    if bad := [token for token in tokens if "_" in token or not token.isascii()]:
        raise ValueError(f"value {bad[0]!r} holds an underscore or a non-ASCII character")
    values = np.array(tokens, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite value among {values.size} floats")
    return values


def _encode_tensors(tensors):
    """Every (name, array) pair checked and made a C-contiguous '<f8' matrix, a 1-D array as one row, then a lazy
    stream of each tensor's line as bytes: 'tensor <name> <rows> <cols> ', the base64 of its own buffer, '\\n'."""
    mats = [(name, np.ascontiguousarray(np.atleast_2d(np.asarray(arr, dtype="<f8")))) for name, arr in tensors]
    if bad := next(((name, mat.shape) for name, mat in mats if mat.ndim != 2), None):
        raise ValueError(f"tensor {bad[0]!r} must be 1-D or 2-D, got shape {bad[1]}")
    return (chunk for name, mat in mats for chunk in
            (f"tensor {name} {mat.shape[0]} {mat.shape[1]} ".encode("utf-8"), base64.b64encode(mat), b"\n"))


def tensor_line(name: str, arr) -> str:
    """'tensor <name> <rows> <cols> <base64 of the row-major little-endian float64 bytes>', a 1-D array as
    one row. One line, because a zero-row tensor's data is empty: alone, it would be a refused blank line."""
    return b"".join(_encode_tensors([(name, arr)]))[:-1].decode("utf-8")


def parse_tensor(line: str) -> tuple[str, np.ndarray]:
    """Inverse of tensor_line: (name, read-only (rows, cols) float64 array). Refuses a malformed
    header, data that is not base64 or not rows * cols values, and a non-finite value."""
    parts = line.split(" ")
    if len(parts) != 5 or parts[0] != "tensor" or not all(p.isascii() and p.isdigit() for p in parts[2:4]):
        raise ValueError(f"malformed tensor line: {line[:80]!r}")
    name, rows, cols = parts[1], int(parts[2]), int(parts[3])
    try:
        raw = base64.b64decode(parts[4], validate=True)
    except ValueError:
        raise ValueError(f"tensor {name!r} data is not base64") from None
    if len(raw) != 8 * rows * cols:
        raise ValueError(f"tensor {name!r} declares {rows}x{cols} but carries {len(raw)} bytes")
    values = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(values).all():
        raise ValueError(f"tensor {name!r} holds a non-finite value")
    return name, values.reshape(rows, cols)


def _write_framed(path, header: str, meta_key: str, meta: dict, chunks) -> None:
    """One container: header and meta line, the body's byte chunks, each hashed as it is written, and the end line."""
    head = f"{header}\n{meta_key} {json.dumps(meta, sort_keys=True)}\n".encode("utf-8")
    digest = hashlib.sha256(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
        fh.write(f"{END} sha256={digest.hexdigest()}\n".encode("utf-8"))


def write_record_file(path, header: str, meta_key: str, meta: dict, body) -> None:
    """One container of raw body lines, each encoded before the file opens: header, meta line, body, end line."""
    _write_framed(path, header, meta_key, meta, [f"{line}\n".encode("utf-8") for line in body])


def write_tensor_file(path, header: str, meta_key: str, meta: dict, tensors) -> None:
    """Inverse of read_tensor_file: one tensor line per (name, array) pair, each encoded and written in turn."""
    _write_framed(path, header, meta_key, meta, _encode_tensors(tensors))


def read_record_file(path, header: str, meta_key: str) -> tuple[dict, list[str]]:
    """Inverse of write_record_file: (meta, body lines). Raises ValueError
    unless the file is UTF-8 text that opens with `header` (naming an older
    version of its kind as such) and a JSON-object meta line, ends with the end
    line its other bytes hash to, and holds no blank line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    cut = raw.rfind(b"\n", 0, len(raw) - 1) + 1  # where the last line starts
    with memoryview(raw)[:cut] as head:
        intact = raw[cut:] == f"{END} sha256={hashlib.sha256(head).hexdigest()}\n".encode("utf-8")
        try:
            text = str(head, "utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    del raw  # the bytes go before the text is split, as they would in text mode
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != header:
        if lines and lines[0].startswith(header.rsplit(" ", 1)[0] + " v"):
            raise ValueError(f"{path}: {lines[0]!r} is an older format than {header!r}; "
                             "re-run `morphdet gen` (world files) or `morphdet train` (checkpoints) to rewrite it")
        raise ValueError(f"{path}: not a {header!r} file")
    if len(lines) < 2 or not intact:
        raise ValueError(f"{path}: last line is not the {END!r} line of its sha256 (cut, edited or trailing text)")
    key, _, payload = lines[1].partition(" ")
    if key != meta_key:
        raise ValueError(f"{path}: line 2 is not a {meta_key!r} line")
    try:
        meta = json.loads(payload)
    except (ValueError, RecursionError):  # JSON cannot parse it (too deep, too long a number): not an object
        meta = None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: {meta_key} line is not a JSON object")
    body = lines[2:]
    for number, line in enumerate(body, start=3):
        if not line.strip():
            raise ValueError(f"{path}: line {number} is blank")
    return meta, body


def read_tensor_file(path, header: str, meta_key: str) -> tuple[dict, dict[str, np.ndarray]]:
    """read_record_file, then each body line parsed by parse_tensor: (meta, name -> 2-D array in file order).
    A repeated name is an error; every refusal names `path` once."""
    meta, body = read_record_file(path, header, meta_key)
    tensors: dict[str, np.ndarray] = {}
    try:
        for line in body:
            name, arr = parse_tensor(line)
            if name in tensors:
                raise ValueError(f"duplicate tensor {name!r}")
            tensors[name] = arr
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return meta, tensors


def write_csv(path, header: str, rows) -> None:
    """The header line, then each row's values joined by commas: a float as fmt writes it, anything else by str."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
