"""Bit-exact file formats.

Tensor container (magic ``CQT1``): 4-byte magic, u32-LE header length, UTF-8
JSON header ``{"name", "dtype" ("f32"|"f64"), "shape", "layout": "row-major"}``,
then the raw little-endian payload. Readers reject trailing bytes.

Bundle container (magic ``CQB1``): same framing, but the JSON header carries
metadata plus a ``tensors`` list of ``{name, dtype, shape}`` entries whose
payloads follow concatenated in order. Stats and plan files are bundles;
statistics and plan matrices are always persisted as f64.

Each metadata entry, and each report row, is its type's `to_json` object,
read back by that type's `from_json`, which checks its fields.

A stats bundle holds ``i.sigma_x`` and ``i.sigma_w`` per group ``i``, and
its ``groups`` are `CalibStats.to_json` objects. A plan bundle holds two
tensors per group: ``i.vectors``, the d x d descending eigenbasis, and
``i.eigenvalues``. Its ``plans`` are `MixedPrecisionPlan.to_json` objects:
the group and the two bit-widths, with the rank, seed, rotation kind and
covariance weights nested under ``partition``; the objective is derived from
the weights. An entry in an earlier layout (the partition's fields beside the
plan's, an ``objective``, or four quantizer ``specs``) is rejected, naming
the field. The composed transform ``u`` is
not stored: a partition read back derives it from the seeded internal
rotations on first use, bit-identical to the solved one. This module checks
the framing, the tensor entries and shapes, and the orthonormality of a
basis.

A report is JSON lines: one `ErrorReport.to_json` object per line, keys
sorted.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import mmap
import os
import struct
import tempfile

import numpy as np

from .calib import CalibStats, ProjectionGroup
from .engine import ErrorReport, MixedPrecisionPlan
from .errors import (
    MAX_BYTES,
    BadMagicError,
    HeaderMismatchError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    is_int,
)
from .solver import SubspacePartition

TENSOR_MAGIC = b"CQT1"
BUNDLE_MAGIC = b"CQB1"

ORTHO_TOL = 1e-8  # largest |V^T V - I| of a plan's basis

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}

# a report's columns: the fields of ErrorReport, in order
REPORT_COLUMNS = [f.name for f in dataclasses.fields(ErrorReport)]


def _process_umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


# mkstemp creates its file 0600; written files get the mode open() would give
_FILE_MODE = 0o666 & ~_process_umask()


def atomic_write(path: str, *chunks) -> None:
    """Write the byte buffers `chunks` in order to a unique temp file beside
    `path`, then rename it over `path`. Concurrent writers never share a temp
    file, and a failed write leaves no temp file behind. An OSError names
    `path`, not the temp file, and keeps its errno."""
    directory, base = os.path.split(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=base + ".", suffix=".tmp",
                                   dir=directory or ".")
        with os.fdopen(fd, "wb") as f:
            os.fchmod(f.fileno(), _FILE_MODE)
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException as e:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(e, OSError) and e.errno is not None:
            raise OSError(e.errno, e.strerror, path) from e
        raise


def parse_json(text: str | bytes, where: str):
    """The value of a JSON document. Text that is not UTF-8, not JSON, or
    nested too deep to parse raises HeaderMismatchError naming `where`."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise HeaderMismatchError(f"{where}: {e}") from e


def _write(path: str, magic: bytes, header: dict, arrays: list[np.ndarray]) -> None:
    """Frame `header` and write the C-contiguous `arrays` after it as they are."""
    h = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    atomic_write(path, magic + struct.pack("<I", len(h)) + h, *arrays)


def _check_entry(entry, path: str, field: str,
                 layout: bool = False) -> tuple[np.dtype, tuple[int, ...], int]:
    """Validate a CQT1 header (`layout=True`) or one CQB1 `tensors` entry;
    return its dtype, shape and payload size in bytes."""
    if not isinstance(entry, dict):
        raise HeaderMismatchError(f"{path}: {field} is not a JSON object")
    for key in ("name", "dtype", "shape") + (("layout",) if layout else ()):
        if key not in entry:
            raise HeaderMismatchError(f"{path}: {field} missing field {key!r}")
    if layout and entry["layout"] != "row-major":
        raise HeaderMismatchError(f"{path}: layout {entry['layout']!r}")
    if not isinstance(entry["name"], str):
        raise HeaderMismatchError(f"{path}: {field}.name must be a string")
    dtype, shape = entry["dtype"], entry["shape"]
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise UnsupportedDtypeError(f"{path}: {field}.dtype {dtype!r}")
    if not isinstance(shape, list) or not shape or not all(is_int(s, 1) for s in shape):
        raise HeaderMismatchError(
            f"{path}: {field}.shape must be a non-empty list of ints >= 1, got {shape!r}")
    size = math.prod(shape) * _DTYPES[dtype].itemsize
    if size > MAX_BYTES:
        raise HeaderMismatchError(f"{path}: {field} declares {size} bytes, above cap")
    return _DTYPES[dtype], tuple(shape), size


def _map(path: str, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """The JSON header of a CQT1 or CQB1 file, and its tensors by name as
    read-only arrays in the file's dtype, backed by one memory map: nothing
    is read until it is used.

    The file size must be the header's plus the tensors' exactly. The mapping
    is released with the last reference to its arrays. Files are replaced by
    rename, never rewritten in place, so a mapped payload does not change
    under its reader."""
    with open(path, "rb") as f:
        head = f.read(8)
        if head[:4] != magic:
            raise BadMagicError(f"{path}: expected magic {magic!r}, got {head[:4]!r}")
        if len(head) < 8:
            raise TruncatedPayloadError(f"{path}: file shorter than header frame")
        (hlen,) = struct.unpack("<I", head[4:8])
        if hlen > MAX_BYTES:
            raise HeaderMismatchError(f"{path}: header length {hlen} exceeds cap")
        raw = f.read(hlen)
        if len(raw) < hlen:
            raise TruncatedPayloadError(f"{path}: truncated JSON header")
        header = parse_json(raw, f"{path}: invalid JSON header")
        if not isinstance(header, dict):
            raise HeaderMismatchError(f"{path}: header is not a JSON object")
        tensor = magic == TENSOR_MAGIC
        entries = [header] if tensor else header.get("tensors", [])
        if not isinstance(entries, list):
            raise HeaderMismatchError(f"{path}: bundle tensors must be a list")
        specs = [_check_entry(e, path, "header" if tensor else f"tensors[{i}]",
                              layout=tensor) for i, e in enumerate(entries)]
        offset = 8 + hlen
        payload = os.fstat(f.fileno()).st_size - offset
        size = sum(nbytes for _, _, nbytes in specs)
        if payload != size:
            raise TruncatedPayloadError(
                f"{path}: payload is {payload} bytes, header declares {size}")
        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    tensors = {}
    for entry, (dtype, shape, nbytes) in zip(entries, specs):
        tensors[entry["name"]] = np.frombuffer(
            mapped, dtype, nbytes // dtype.itemsize, offset).reshape(shape)
        offset += nbytes
    return header, tensors


def _tensor(tensors: dict, name: str, shape: tuple, path: str) -> np.ndarray:
    """The bundle tensor `name`, which must have `shape` and finite entries,
    as a float64 array of its own."""
    if name not in tensors:
        raise HeaderMismatchError(f"{path}: missing tensor {name!r}")
    if tensors[name].shape != shape:
        raise HeaderMismatchError(f"{path}: tensor {name!r} has shape "
                                  f"{tensors[name].shape}, expected {shape}")
    t = np.array(tensors[name], dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise HeaderMismatchError(f"{path}: tensor {name!r} contains non-finite entries")
    return t


def write_tensor(path: str, name: str, matrix: np.ndarray, dtype: str = "f64") -> None:
    """Write `matrix` as a CQT1 tensor in `dtype`. A finite value that
    overflows `dtype` raises ValueError and writes nothing; NaN and +-inf
    are written as they are, for the readers to reject."""
    if dtype not in _DTYPES:
        raise UnsupportedDtypeError(f"unsupported dtype {dtype!r}")
    try:
        with np.errstate(over="raise"):
            m = np.ascontiguousarray(matrix, dtype=_DTYPES[dtype])
    except FloatingPointError as e:
        raise ValueError(f"tensor {name!r}: a value overflows {dtype}") from e
    _write(path, TENSOR_MAGIC, {"name": name, "dtype": dtype, "shape": list(m.shape),
                                "layout": "row-major"}, [m])


def map_tensor(path: str) -> np.ndarray:
    """Read-only array of a CQT1 payload in the file's dtype, backed by a
    memory map (see `_map`)."""
    _, tensors = _map(path, TENSOR_MAGIC)
    (array,) = tensors.values()
    return array


def read_tensor(path: str) -> np.ndarray:
    """A CQT1 tensor as a float64 array of its own."""
    return np.array(map_tensor(path), dtype=np.float64)


def _write_bundle(path: str, kind: str, meta: dict,
                  tensors: list[tuple[str, np.ndarray]]) -> None:
    arrays = [np.ascontiguousarray(a, dtype="<f8") for _, a in tensors]
    entries = [{"name": name, "dtype": "f64", "shape": list(a.shape)}
               for (name, _), a in zip(tensors, arrays)]
    _write(path, BUNDLE_MAGIC, {"kind": kind, "meta": meta, "tensors": entries}, arrays)


def _read_bundle(path: str, kind: str) -> tuple[list[dict], dict[str, np.ndarray]]:
    """The per-group metadata objects and the mapped tensors by name of a
    CQB1 bundle of `kind` ("stats" or "plan"); the types they describe check
    the rest."""
    header, tensors = _map(path, BUNDLE_MAGIC)
    if header.get("kind") != kind:
        raise HeaderMismatchError(
            f"{path}: bundle kind {header.get('kind')!r}, expected {kind!r}")
    field = {"stats": "groups", "plan": "plans"}[kind]
    meta = header.get("meta")
    records = meta.get(field) if isinstance(meta, dict) else None
    if not (isinstance(records, list) and records
            and all(isinstance(r, dict) for r in records)):
        raise HeaderMismatchError(
            f"{path}: meta.{field} must be a non-empty list of JSON objects")
    return records, tensors


def write_stats(path: str, stats_list: list[CalibStats]) -> None:
    tensors = [(f"{i}.{key}", getattr(st, key)) for i, st in enumerate(stats_list)
               for key in ("sigma_x", "sigma_w")]
    _write_bundle(path, "stats", {"groups": [st.to_json() for st in stats_list]},
                  tensors)


def read_stats(path: str) -> list[CalibStats]:
    entries, tensors = _read_bundle(path, "stats")
    out = []
    for i, entry in enumerate(entries):
        where = f"{path}: groups[{i}]"
        group = ProjectionGroup.from_json(entry.get("group"), f"{where}.group")
        d = group.dim
        out.append(CalibStats.from_json(
            entry, where, group=group,
            sigma_x=_tensor(tensors, f"{i}.sigma_x", (d, d), path),
            sigma_w=_tensor(tensors, f"{i}.sigma_w", (d, d), path)))
    return out


def write_plan(path: str, plans: list[MixedPrecisionPlan]) -> None:
    tensors = [(f"{i}.{key}", getattr(plan.partition, key))
               for i, plan in enumerate(plans) for key in ("vectors", "eigenvalues")]
    _write_bundle(path, "plan", {"plans": [plan.to_json() for plan in plans]},
                  tensors)


def read_plan(path: str) -> list[MixedPrecisionPlan]:
    """The plans of a bundle. Each partition derives its `u` from its
    eigenbasis, rank, seed and rotation kind when `u` is first used."""
    entries, tensors = _read_bundle(path, "plan")
    out = []
    for i, entry in enumerate(entries):
        where = f"{path}: plans[{i}]"
        group = ProjectionGroup.from_json(entry.get("group"), f"{where}.group")
        d = group.dim
        vectors = _tensor(tensors, f"{i}.vectors", (d, d), path)
        # |V^T V - I| formed in the Gram's own buffer: no d x d temporaries
        gram = vectors.T @ vectors
        gram.flat[::d + 1] -= 1.0
        resid = float(np.max(np.abs(gram, out=gram)))
        if not resid <= ORTHO_TOL:
            raise HeaderMismatchError(f"{where}: basis has "
                                      f"|V^T V - I|_max = {resid:.3e}")
        part = SubspacePartition.from_json(
            entry.get("partition"), f"{where}.partition", vectors=vectors,
            eigenvalues=_tensor(tensors, f"{i}.eigenvalues", (d,), path))
        out.append(MixedPrecisionPlan.from_json(entry, where, partition=part,
                                                group=group))
    return out


def write_report(path: str, reports: list[ErrorReport]) -> None:
    atomic_write(path, "".join(json.dumps(r.to_json(), sort_keys=True) + "\n"
                               for r in reports).encode("utf-8"))


def read_report(path: str) -> list[ErrorReport]:
    """The rows of a JSON-lines report, each checked by ErrorReport. Blank
    lines are skipped, so an empty file is an empty report."""
    with open(path, "rb") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    out = []
    for i, line in enumerate(lines):
        where = f"{path}: report row {i}"
        out.append(ErrorReport.from_json(parse_json(line, f"{where} is not JSON"), where))
    return out
