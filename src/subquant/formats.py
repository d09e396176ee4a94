"""Bit-exact file formats.

Tensor container (magic ``CQT1``): 4-byte magic, u32-LE header length, UTF-8
JSON header ``{"name", "dtype" ("f32"|"f64"), "shape", "layout": "row-major"}``,
then the raw little-endian payload. Readers reject trailing bytes.

Bundle container (magic ``CQB1``): same framing, but the JSON header carries
arbitrary metadata plus a ``tensors`` list of ``{name, dtype, shape}`` entries
whose payloads follow concatenated in order. Stats and plan files are bundles;
statistics and plan matrices are always persisted as f64.

Reports are JSON-lines or CSV with a fixed column order.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct

import numpy as np

from .calib import CalibStats, ProjectionGroup
from .engine import ErrorReport, MixedPrecisionPlan
from .errors import (
    BadMagicError,
    HeaderMismatchError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
)
from .quantizer import QuantSpec
from .solver import SubspacePartition

TENSOR_MAGIC = b"CQT1"
BUNDLE_MAGIC = b"CQB1"
MAX_BYTES = 4 << 30  # refuse headers that declare larger allocations

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}

REPORT_COLUMNS = [
    "group", "objective", "exact_error", "exact_error_root", "predicted_error",
    "relative_reduction", "energy_x_low", "energy_x_high", "energy_w_low",
    "energy_w_high", "bits_low", "bits_high", "rank", "seed",
]


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def _dump_header(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _frame(magic: bytes, header: dict, payload: bytes) -> bytes:
    h = _dump_header(header)
    return magic + struct.pack("<I", len(h)) + h + payload


def _read_frame(path: str, magic: bytes) -> tuple[dict, bytes]:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != magic:
        raise BadMagicError(f"{path}: expected magic {magic!r}, got {raw[:4]!r}")
    if len(raw) < 8:
        raise TruncatedPayloadError(f"{path}: file shorter than header frame")
    (hlen,) = struct.unpack("<I", raw[4:8])
    if hlen > MAX_BYTES:
        raise HeaderMismatchError(f"{path}: header length {hlen} exceeds cap")
    if len(raw) < 8 + hlen:
        raise TruncatedPayloadError(f"{path}: truncated JSON header")
    try:
        header = json.loads(raw[8:8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise HeaderMismatchError(f"{path}: invalid JSON header: {e}") from e
    return header, raw[8 + hlen:]


def _payload_bytes(dtype: str, shape: list[int], path: str, field: str) -> int:
    if dtype not in _DTYPES:
        raise UnsupportedDtypeError(f"{path}: {field}.dtype {dtype!r}")
    if not shape or any(int(s) < 1 for s in shape):
        raise HeaderMismatchError(f"{path}: {field}.shape entries must be >= 1")
    n = int(np.prod([int(s) for s in shape], dtype=np.int64))
    size = n * _DTYPES[dtype].itemsize
    if size > MAX_BYTES:
        raise HeaderMismatchError(f"{path}: {field} declares {size} bytes, above cap")
    return size


def write_tensor(path: str, name: str, matrix: np.ndarray, dtype: str = "f64") -> None:
    if dtype not in _DTYPES:
        raise UnsupportedDtypeError(f"unsupported dtype {dtype!r}")
    m = np.ascontiguousarray(np.asarray(matrix), dtype=_DTYPES[dtype])
    header = {"name": name, "dtype": dtype, "shape": list(m.shape),
              "layout": "row-major"}
    _atomic_write(path, _frame(TENSOR_MAGIC, header, m.tobytes()))


def read_tensor(path: str) -> np.ndarray:
    header, payload = _read_frame(path, TENSOR_MAGIC)
    for key in ("name", "dtype", "shape", "layout"):
        if key not in header:
            raise HeaderMismatchError(f"{path}: header missing field {key!r}")
    if header["layout"] != "row-major":
        raise HeaderMismatchError(f"{path}: layout {header['layout']!r}")
    size = _payload_bytes(header["dtype"], header["shape"], path, "tensor")
    if len(payload) != size:
        raise TruncatedPayloadError(
            f"{path}: payload is {len(payload)} bytes, header declares {size}")
    arr = np.frombuffer(payload, dtype=_DTYPES[header["dtype"]])
    return arr.reshape(header["shape"]).astype(np.float64)


def _write_bundle(path: str, kind: str, meta: dict,
                  tensors: list[tuple[str, np.ndarray]]) -> None:
    entries, payload = [], bytearray()
    for name, arr in tensors:
        a = np.ascontiguousarray(np.asarray(arr), dtype="<f8")
        entries.append({"name": name, "dtype": "f64", "shape": list(a.shape)})
        payload += a.tobytes()
    header = {"kind": kind, "meta": meta, "tensors": entries}
    _atomic_write(path, _frame(BUNDLE_MAGIC, header, bytes(payload)))


def _read_bundle(path: str, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    header, payload = _read_frame(path, BUNDLE_MAGIC)
    if header.get("kind") != kind:
        raise HeaderMismatchError(
            f"{path}: bundle kind {header.get('kind')!r}, expected {kind!r}")
    tensors, offset = {}, 0
    for i, entry in enumerate(header.get("tensors", [])):
        size = _payload_bytes(entry["dtype"], entry["shape"], path, f"tensors[{i}]")
        chunk = payload[offset:offset + size]
        if len(chunk) != size:
            raise TruncatedPayloadError(f"{path}: truncated payload for "
                                        f"tensor {entry['name']!r}")
        tensors[entry["name"]] = np.frombuffer(chunk, dtype="<f8").reshape(
            entry["shape"]).copy()
        offset += size
    if offset != len(payload):
        raise TruncatedPayloadError(
            f"{path}: {len(payload) - offset} trailing payload bytes")
    return header["meta"], tensors


def write_stats(path: str, stats_list: list[CalibStats]) -> None:
    meta, tensors = [], []
    for i, st in enumerate(stats_list):
        meta.append({"group": st.group.to_json(), "energy_x": st.energy_x,
                     "energy_w": st.energy_w, "tokens_seen": st.tokens_seen})
        tensors.append((f"{i}.sigma_x", st.sigma_x))
        tensors.append((f"{i}.sigma_w", st.sigma_w))
    _write_bundle(path, "stats", {"groups": meta}, tensors)


def read_stats(path: str) -> list[CalibStats]:
    meta, tensors = _read_bundle(path, "stats")
    out = []
    for i, g in enumerate(meta["groups"]):
        try:
            out.append(CalibStats(
                group=ProjectionGroup.from_json(g["group"]),
                sigma_x=tensors[f"{i}.sigma_x"],
                sigma_w=tensors[f"{i}.sigma_w"],
                energy_x=g["energy_x"], energy_w=g["energy_w"],
                tokens_seen=g["tokens_seen"],
            ))
        except KeyError as e:
            raise HeaderMismatchError(f"{path}: groups[{i}] missing {e}") from e
    return out


def _spec_json(spec: QuantSpec | None):
    return None if spec is None else spec.to_json()


def _spec_from(obj) -> QuantSpec | None:
    return None if obj is None else QuantSpec.from_json(obj)


def write_plan(path: str, plans: list[MixedPrecisionPlan]) -> None:
    meta, tensors = [], []
    for i, plan in enumerate(plans):
        part = plan.partition
        meta.append({
            "group": plan.group.to_json(),
            "objective": plan.objective,
            "seed": plan.seed,
            "rotation": plan.rotation,
            "rank": part.rank,
            "lambda_x": part.lambda_x,
            "lambda_w": part.lambda_w,
            "specs": {"low": _spec_json(plan.spec_low),
                      "high": _spec_json(plan.spec_high),
                      "low_w": _spec_json(plan.spec_low_w),
                      "high_w": _spec_json(plan.spec_high_w)},
        })
        for name, arr in (("p_h", part.p_h), ("p_l", part.p_l),
                          ("r_h", part.r_h), ("r_l", part.r_l),
                          ("u", part.u), ("eigenvalues", part.eigenvalues)):
            tensors.append((f"{i}.{name}", arr))
    _write_bundle(path, "plan", {"plans": meta}, tensors)


def read_plan(path: str) -> list[MixedPrecisionPlan]:
    meta, tensors = _read_bundle(path, "plan")
    out = []
    for i, p in enumerate(meta["plans"]):
        try:
            part = SubspacePartition(
                p_h=tensors[f"{i}.p_h"], p_l=tensors[f"{i}.p_l"],
                r_h=tensors[f"{i}.r_h"], r_l=tensors[f"{i}.r_l"],
                u=tensors[f"{i}.u"],
                lambda_x=p["lambda_x"], lambda_w=p["lambda_w"],
                eigenvalues=tensors[f"{i}.eigenvalues"].reshape(-1),
            )
            out.append(MixedPrecisionPlan(
                partition=part,
                spec_low=_spec_from(p["specs"]["low"]),
                spec_high=_spec_from(p["specs"]["high"]),
                spec_low_w=_spec_from(p["specs"]["low_w"]),
                spec_high_w=_spec_from(p["specs"]["high_w"]),
                group=ProjectionGroup.from_json(p["group"]),
                objective=p["objective"], seed=p["seed"], rotation=p["rotation"],
            ))
        except KeyError as e:
            raise HeaderMismatchError(f"{path}: plans[{i}] missing {e}") from e
    return out


def write_report(path: str, reports: list[ErrorReport], fmt: str = "json",
                 append: bool = False) -> None:
    rows = [r.to_json() for r in reports]
    if fmt == "json":
        body = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=REPORT_COLUMNS, lineterminator="\n")
        if not (append and os.path.exists(path)):
            writer.writeheader()
        writer.writerows(rows)
        body = buf.getvalue()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if append and os.path.exists(path):
        with open(path, "a", encoding="utf-8") as f:
            f.write(body)
    else:
        _atomic_write(path, body.encode("utf-8"))


def read_report(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    if text.lstrip().startswith("{"):
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        missing = [c for c in REPORT_COLUMNS if c not in row]
        if missing:
            raise HeaderMismatchError(f"{path}: report missing columns {missing}")
        for col in REPORT_COLUMNS:
            if col in ("group", "objective"):
                continue
            row[col] = None if row[col] in ("", "None") else float(row[col])
    return rows
