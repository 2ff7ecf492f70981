"""Binary embedding-file format plus an optional delimited sidecar.

Layout, all little-endian: magic b"SLEM", version u16, count u32, dim u32,
then count*dim float32 values row-major. A sidecar "<path>.meta.csv" with
columns id,label,slice carries item metadata when present. Floats are
exchanged at 32-bit precision; reading back what was written is an identity
at that precision.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import first_bad_row, row_norms

MAGIC = b"SLEM"
VERSION = 1
_HEADER = struct.Struct("<4sHII")


class EmbeddingFileError(ValueError):
    """Raised for malformed embedding files; messages carry byte offsets."""


@dataclass
class EmbeddingCollection:
    X: np.ndarray
    ids: np.ndarray | None = None
    labels: np.ndarray | None = None
    slices: np.ndarray | None = None


def _sidecar(path) -> Path:
    return Path(str(path) + ".meta.csv")


def write_embeddings(path, X, ids=None, labels=None, slices=None) -> None:
    """Write a float32 embedding matrix, with optional id/label/slice sidecar.

    Rows read_embeddings would reject raise EmbeddingFileError; nothing is written.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float32))
    count, dim = X.shape
    if count == 0 or dim == 0:
        raise EmbeddingFileError("refusing to write an empty embedding collection")
    if bad := first_bad_row(X, row_norms(X)):
        raise EmbeddingFileError("row %d is %s in float32; nothing was written" % bad)
    payload = _HEADER.pack(MAGIC, VERSION, count, dim) + X.astype("<f4").tobytes(order="C")
    Path(path).write_bytes(payload)
    if ids is not None or labels is not None or slices is not None:
        n = count
        ids = np.arange(n) if ids is None else np.asarray(ids)
        labels = np.full(n, -1) if labels is None else np.asarray(labels)
        slices = np.full(n, -1) if slices is None else np.asarray(slices)
        if not (len(ids) == len(labels) == len(slices) == n):
            raise EmbeddingFileError("sidecar columns must match embedding count")
        with open(_sidecar(path), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "label", "slice"])
            for i in range(n):
                writer.writerow([int(ids[i]), int(labels[i]), int(slices[i])])


def _parse_text_embeddings(raw: bytes, path) -> np.ndarray:
    """Fallback delimited-text format: one comma-separated float row per line."""
    try:
        lines = [ln for ln in raw.decode("utf-8").splitlines() if ln.strip()]
    except UnicodeDecodeError as exc:
        raise EmbeddingFileError(
            f"{path}: neither a {MAGIC!r} binary file nor delimited text ({exc})"
        ) from exc
    if not lines:
        raise EmbeddingFileError(f"{path}: empty text embedding file")
    rows = []
    for lineno, line in enumerate(lines, start=1):
        try:
            rows.append([float(v) for v in line.replace(",", " ").split()])
        except ValueError as exc:
            raise EmbeddingFileError(f"{path}:{lineno}: not a numeric row ({exc})") from exc
        if len(rows[-1]) != len(rows[0]):
            raise EmbeddingFileError(
                f"{path}:{lineno}: row has {len(rows[-1])} values, expected {len(rows[0])}"
            )
    return np.asarray(rows, dtype=np.float32)


def _check_rows(X: np.ndarray, path, binary: bool) -> None:
    """Reject NaN, inf (float32 overflow included) and all-zero rows."""
    if bad := first_bad_row(X, row_norms(X)):
        i, why = bad
        where = f" at byte offset {_HEADER.size + 4 * X.shape[1] * i}" if binary else ""
        raise EmbeddingFileError(f"{path}: row {i}{where} is {why}")


def read_embeddings(path) -> EmbeddingCollection:
    """Read an embedding file (and its sidecar, if any) back.

    The binary format is canonical; files without the magic bytes are parsed
    as delimited text, one embedding row per line. Raises EmbeddingFileError
    naming the offending byte offsets for a bad magic-format payload, and
    rejects any NaN, inf or all-zero row, naming it.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        X = _parse_text_embeddings(raw, path)
        _check_rows(X, path, binary=False)
        return _with_sidecar(path, X)
    if len(raw) < _HEADER.size:
        raise EmbeddingFileError(
            f"file too short for header: expected {_HEADER.size} bytes at offset 0, got {len(raw)}"
        )
    _magic, version, count, dim = _HEADER.unpack_from(raw, 0)
    if version != VERSION:
        raise EmbeddingFileError(f"unsupported version {version} at offset 4")
    if count == 0 or dim == 0:
        raise EmbeddingFileError(f"empty collection (count={count}, dim={dim}) at offset 6")
    expected = _HEADER.size + 4 * count * dim
    if len(raw) != expected:
        raise EmbeddingFileError(
            f"payload length mismatch: expected {expected} bytes "
            f"({count}x{dim} float32 after offset {_HEADER.size}), got {len(raw)}"
        )
    X = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(count, dim).copy()
    _check_rows(X, path, binary=True)
    return _with_sidecar(path, X)


_SIDECAR_FIELDS = ("id", "label", "slice")


def _sidecar_row(row: list[str], where: str) -> list[int]:
    """One sidecar row as integers; EmbeddingFileError names the line and field."""
    n = len(_SIDECAR_FIELDS)
    if len(row) < n:
        raise EmbeddingFileError(f"{where}: field {_SIDECAR_FIELDS[len(row)]} is missing")
    if len(row) > n:
        raise EmbeddingFileError(f"{where}: field {n + 1} is extra; rows hold id,label,slice")
    out = []
    for name, value in zip(_SIDECAR_FIELDS, row):
        try:
            out.append(int(value))
        except ValueError:
            raise EmbeddingFileError(f"{where}: field {name} is not an integer: {value!r}") from None
    return out


def _with_sidecar(path, X: np.ndarray) -> EmbeddingCollection:
    count = X.shape[0]

    ids = labels = slices = None
    sidecar = _sidecar(path)
    if sidecar.exists():
        with open(sidecar, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != list(_SIDECAR_FIELDS):
                raise EmbeddingFileError(f"{sidecar}: header must be id,label,slice, got {header}")
            rows = [_sidecar_row(row, f"{sidecar}:{reader.line_num}") for row in reader]
        if len(rows) != count:
            raise EmbeddingFileError(
                f"sidecar has {len(rows)} rows but embedding file holds {count}"
            )
        table = np.asarray(rows, dtype=np.int64)
        ids, labels, slices = table[:, 0], table[:, 1], table[:, 2]
    return EmbeddingCollection(X=X, ids=ids, labels=labels, slices=slices)
