"""Bit-exact file formats.

Every tensor, stats and plan file is safetensors
(https://github.com/huggingface/safetensors): a u64-LE header length N, a
JSON object padded with spaces so that 8 + N is a multiple of 8, then the
tensors' bytes. The object maps each tensor's name to ``{"dtype":
"F32"|"F64", "shape", "data_offsets"}`` and may hold a ``__metadata__``
object of strings; sorted by offset, the tensors tile the rest of the file.
The writers write one dtype per file, so every mapped payload is aligned and
read where it is mapped: `read_stats` and `read_plan` return read-only
float64 views, converting only a foreign F32 or unaligned tensor, and
`read_tensor` is the one reader that copies. Each tensor is written to an
unnamed temp file as it arrives, the header after the last, then the body
copied behind it; the stats and plan writers release each group before they
draw the next. A tensor file holds one tensor; stats and plans are f64,
and their ``__metadata__`` is ``{"kind": "stats"|"plan", "meta": <JSON text>}``.
Each entry of ``meta``, and each report row, is its type's `to_json`
object, read back by that type's `from_json`, which checks its fields.

A stats file holds ``i.sigma_x`` and ``i.sigma_w`` per group ``i``, and
its ``groups`` are `CalibStats.to_json` objects. A plan file holds two
tensors per group: ``i.vectors``, the d x d descending eigenbasis, and
``i.eigenvalues``. Its ``plans`` are `MixedPrecisionPlan.to_json` objects:
the group and the two bit-widths, with the rank, seed, rotation kind and
covariance weights nested under ``partition``; the objective is derived from
the weights. An entry in an earlier form (the partition's fields beside the
plan's, an ``objective``, or four quantizer ``specs``) is rejected, naming
the field. The composed transform ``u`` is not stored: a partition read
back derives it from the seeded internal rotations on first use,
bit-identical to the solved one. This module checks the framing, the
tensor entries and shapes, and the orthonormality of each basis it reads:
with a `group`, `read_plan` reads that group's only.

A report is JSON lines: one `ErrorReport.to_json` object per line, keys
sorted.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import mmap
import os
import tempfile

import numpy as np

from .calib import CalibStats, ProjectionGroup
from .engine import ErrorReport, MixedPrecisionPlan
from .errors import (
    MAX_BYTES,
    HeaderMismatchError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    check,
    is_int,
)
from .solver import SubspacePartition

ORTHO_TOL = 1e-8  # largest |V^T V - I| of a plan's basis
COPY_BYTES = 1 << 16  # the buffer a written body is copied through

_DTYPES = {"F32": np.dtype("<f4"), "F64": np.dtype("<f8")}
_DTYPE_NAMES = {dtype: name for name, dtype in _DTYPES.items()}
_FIELDS = {"stats": "groups", "plan": "plans"}  # the meta list of each bundle kind

# the shape rule of the readers, which the writer applies too
_SHAPE = (lambda v: isinstance(v, list) and v != [] and all(is_int(s, 1) for s in v),
          "a non-empty list of ints >= 1")

# a report's columns: the fields of ErrorReport, in order
REPORT_COLUMNS = [f.name for f in dataclasses.fields(ErrorReport)]


def atomic_write(path: str, chunks) -> None:
    """Write the byte buffers of the iterable `chunks`, drawn as written, to
    a unique temp file beside `path`, then rename it over `path`. The temp
    file is created with the mode open() gives, the process's umask applied
    when it is created. Concurrent writers never share a temp file, and a
    failed write leaves no temp file behind. An OSError names `path`, not
    the temp file, and keeps its errno."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as f:
                for chunk in chunks:
                    f.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as e:
        if e.errno is not None:
            raise OSError(e.errno, e.strerror, path) from e
        raise


def parse_json(text: str | bytes, where: str):
    """The value of a JSON document. Text that is not UTF-8, not JSON, or
    nested too deep to parse raises HeaderMismatchError naming `where`."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise HeaderMismatchError(f"{where}: {e}") from e


def _write(path: str, tensors, dtype: np.dtype, metadata=None) -> None:
    """Write the (name, array) pairs `tensors` in `dtype` to a temp body, each
    freed once written; then the header, padded to a multiple of 8 bytes and
    holding `metadata()` if given, and the body. Overflow raises ValueError."""
    header, offset = {}, 0
    try:
        body = tempfile.TemporaryFile(dir=os.path.dirname(path) or ".")
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from e
    with body:
        for name, a in tensors:
            try:
                with np.errstate(over="raise"):
                    a = np.asarray(a, dtype, order="C")
            except FloatingPointError as e:
                raise ValueError(f"tensor {name!r}: a value overflows "
                                 f"{_DTYPE_NAMES[dtype].lower()}") from e
            header[name] = {"dtype": _DTYPE_NAMES[dtype], "shape": list(a.shape),
                            "data_offsets": [offset, offset + a.nbytes]}
            offset += a.nbytes
            body.write(a)
            del a  # before the next array is formed
        if metadata is not None:
            header["__metadata__"] = metadata()
        h = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        h += b" " * (-len(h) % 8)
        body.seek(0)
        buf = memoryview(bytearray(COPY_BYTES))
        copied = (buf[:n] for n in iter(lambda: body.readinto(buf), 0))
        atomic_write(path, itertools.chain([len(h).to_bytes(8, "little") + h], copied))


def _check_entry(entry, path: str, name: str) -> tuple[np.dtype, tuple[int, ...], int, int]:
    """Validate a header's entry for tensor `name`; return its dtype, shape
    and begin and end offsets."""
    field = f"{path}: tensor {name!r}"
    if not isinstance(entry, dict):
        raise HeaderMismatchError(f"{field} is not a JSON object")
    for key in ("dtype", "shape", "data_offsets"):
        if key not in entry:
            raise HeaderMismatchError(f"{field} missing field {key!r}")
    dtype, shape, offsets = entry["dtype"], entry["shape"], entry["data_offsets"]
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise UnsupportedDtypeError(f"{field}: dtype {dtype!r}")
    check(f"{field}: shape", shape, *_SHAPE, HeaderMismatchError)
    size = math.prod(shape) * _DTYPES[dtype].itemsize
    if size > MAX_BYTES:
        raise HeaderMismatchError(f"{field} declares {size} bytes, above cap")
    if not (isinstance(offsets, list) and len(offsets) == 2
            and all(is_int(o, 0) for o in offsets) and offsets[1] - offsets[0] == size):
        raise HeaderMismatchError(f"{field}: data_offsets must be two ints >= 0 "
                                  f"spanning its {size} bytes, got {offsets!r}")
    return _DTYPES[dtype], tuple(shape), *offsets


def _map(path: str) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """The `__metadata__` of a safetensors file, and its tensors by name as
    read-only arrays in the file's dtype, backed by one memory map: nothing
    is read until it is used.

    Sorted by offset, the tensors must tile the rest of the file exactly.
    The mapping is released with the last reference to its arrays. Files
    are replaced by rename, never rewritten in place, so a mapped payload
    does not change under its reader."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        hlen = int.from_bytes(f.read(8), "little")  # a short read fails the check
        if hlen > min(MAX_BYTES, size - 8):
            raise HeaderMismatchError(f"{path}: header length {hlen} is past the end "
                                      "of the file or the cap: not a safetensors file")
        header = parse_json(f.read(hlen), f"{path}: invalid JSON header")
        if not isinstance(header, dict):
            raise HeaderMismatchError(f"{path}: header is not a JSON object")
        metadata = header.pop("__metadata__", {})
        if not (isinstance(metadata, dict)
                and all(isinstance(v, str) for v in metadata.values())):
            raise HeaderMismatchError(f"{path}: __metadata__ must map strings to strings")
        specs = {name: _check_entry(e, path, name) for name, e in header.items()}
        end = 0
        for name, (_, _, begin, stop) in sorted(specs.items(), key=lambda kv: kv[1][2]):
            if begin != end:
                raise HeaderMismatchError(f"{path}: tensor {name!r} begins at byte "
                                          f"{begin}, expected {end}: a gap or an overlap")
            end = stop
        if size - 8 - hlen != end:
            raise TruncatedPayloadError(
                f"{path}: payload is {size - 8 - hlen} bytes, header declares {end}")
        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    return metadata, {
        name: np.frombuffer(mapped, dtype, (stop - begin) // dtype.itemsize,
                            8 + hlen + begin).reshape(shape)
        for name, (dtype, shape, begin, stop) in specs.items()}


def _tensor(tensors: dict, name: str, shape: tuple, path: str) -> np.ndarray:
    """The bundle tensor `name`, which must have `shape` and finite entries,
    as aligned float64: the mapped payload, or a copy of an F32 or unaligned one."""
    if name not in tensors:
        raise HeaderMismatchError(f"{path}: missing tensor {name!r}")
    if tensors[name].shape != shape:
        raise HeaderMismatchError(f"{path}: tensor {name!r} has shape "
                                  f"{tensors[name].shape}, expected {shape}")
    t = np.require(tensors[name], np.float64, "A")
    if not np.all(np.isfinite(t)):
        raise HeaderMismatchError(f"{path}: tensor {name!r} contains non-finite entries")
    return t


def write_tensor(path: str, name: str, matrix: np.ndarray, dtype: str = "f64") -> None:
    """Write `matrix` as a one-tensor safetensors file in `dtype`. A shape
    the readers reject (0-d, or with a zero dimension), or a finite value
    that overflows `dtype`, raises ValueError and writes nothing; NaN and
    +-inf are written as they are, for the readers to reject."""
    if dtype not in ("f32", "f64"):
        raise UnsupportedDtypeError(f"unsupported dtype {dtype!r}")
    check("name", name, lambda v: isinstance(v, str) and v != "__metadata__",
          "a string other than '__metadata__'")
    check(f"tensor {name!r}: shape", list(np.shape(matrix)), *_SHAPE)
    _write(path, [(name, matrix)], _DTYPES[dtype.upper()])


def map_tensor(path: str) -> np.ndarray:
    """Read-only array of a one-tensor file's payload in the file's dtype,
    backed by a memory map (see `_map`)."""
    _, tensors = _map(path)
    if len(tensors) != 1:
        raise HeaderMismatchError(f"{path}: holds {len(tensors)} tensors, expected 1")
    (array,) = tensors.values()
    return array


def read_tensor(path: str) -> np.ndarray:
    """A one-tensor file's tensor as a float64 array of its own: a copy."""
    return np.array(map_tensor(path), dtype=np.float64)


def _write_bundle(path: str, kind: str, items, holder, keys: tuple[str, str]) -> None:
    """Write the stats or plan file `kind` of `items`, each released before
    the next is drawn: its `to_json()`, and the `keys` of `holder(item)`."""
    field, records = _FIELDS[kind], []

    def tensors():
        for item in items:
            records.append(item.to_json())
            for key in keys:
                yield f"{len(records) - 1}.{key}", getattr(holder(item), key)
            del item  # before the next is formed
        check(f"{path}: {field}", records, len, "a non-empty list")

    _write(path, tensors(), _DTYPES["F64"], lambda: {"kind": kind, "meta": json.dumps(
        {field: records}, sort_keys=True, separators=(",", ":"))})


def _read_bundle(path: str, kind: str):
    """Per group of a stats or plan file (`kind`): where its metadata object
    is, the object, its group, and `tensor(key, shape=(d, d))`, its tensor
    `key` as `_tensor` checks it; the types they describe check the rest."""
    metadata, tensors = _map(path)
    if metadata.get("kind") != kind:
        raise HeaderMismatchError(
            f"{path}: file kind {metadata.get('kind')!r}, expected {kind!r}")
    field = _FIELDS[kind]
    meta = parse_json(metadata.get("meta", "null"), f"{path}: meta is not JSON")
    records = meta.get(field) if isinstance(meta, dict) else None
    if not (isinstance(records, list) and records
            and all(isinstance(r, dict) for r in records)):
        raise HeaderMismatchError(
            f"{path}: meta.{field} must be a non-empty list of JSON objects")
    for i, record in enumerate(records):
        where = f"{path}: {field}[{i}]"
        group = ProjectionGroup.from_json(record.get("group"), f"{where}.group")
        yield where, record, group, (lambda key, shape=(group.dim,) * 2, i=i:
                                     _tensor(tensors, f"{i}.{key}", shape, path))


def write_stats(path: str, stats) -> None:
    _write_bundle(path, "stats", stats, lambda st: st, ("sigma_x", "sigma_w"))


def read_stats(path: str) -> list[CalibStats]:
    return [CalibStats.from_json(entry, where, group=group, sigma_x=tensor("sigma_x"),
                                 sigma_w=tensor("sigma_w"))
            for where, entry, group, tensor in _read_bundle(path, "stats")]


def write_plan(path: str, plans) -> None:
    _write_bundle(path, "plan", plans, lambda p: p.partition, ("vectors", "eigenvalues"))


def _orthonormal(vectors: np.ndarray, where: str) -> np.ndarray:
    """`vectors`, which must be orthonormal to ORTHO_TOL. |V^T V - I| is
    formed in the Gram's own buffer, freed on return: one d x d at a time."""
    gram = vectors.T @ vectors
    gram.flat[::len(gram) + 1] -= 1.0
    resid = float(np.max(np.abs(gram, out=gram)))
    if not resid <= ORTHO_TOL:
        raise HeaderMismatchError(f"{where}: basis has |V^T V - I|_max = {resid:.3e}")
    return vectors


def read_plan(path: str, group: str | None = None) -> list[MixedPrecisionPlan]:
    """The plans of a bundle, or those of the group named `group`, the others'
    tensors unread. Each partition derives its `u` when it is first used."""
    out = []
    for where, entry, g, tensor in _read_bundle(path, "plan"):
        if group is not None and g.name != group:
            continue
        part = SubspacePartition.from_json(
            entry.get("partition"), f"{where}.partition",
            vectors=_orthonormal(tensor("vectors"), where),
            eigenvalues=tensor("eigenvalues", (g.dim,)))
        out.append(MixedPrecisionPlan.from_json(entry, where, partition=part, group=g))
    return out


def write_report(path: str, reports: list[ErrorReport]) -> None:
    atomic_write(path, ["".join(json.dumps(r.to_json(), sort_keys=True) + "\n"
                                for r in reports).encode("utf-8")])


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
