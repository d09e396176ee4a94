import dataclasses
import json
import math
import os
import re
import struct
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subquant import formats
from subquant.cli import main
from subquant.calib import ProjectionGroup, calibrate
from subquant.engine import (
    analyze_layer,
    build_plan,
    execute_plan,
    measure_plan,
    stats_from_tensors,
)
from subquant.errors import (
    BadMagicError,
    HeaderMismatchError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
)
from subquant.linalg import HIGH_ROTATION, LOW_ROTATION


class TestTensorContainer:
    def test_round_trip_f64_bit_identical(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        formats.write_tensor(path, "eye", np.eye(3), dtype="f64")
        out = formats.read_tensor(path)
        assert np.array_equal(out, np.eye(3))

    def test_round_trip_f32(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        m = np.random.default_rng(0).standard_normal((4, 5))
        formats.write_tensor(path, "m", m, dtype="f32")
        out = formats.read_tensor(path)
        assert np.array_equal(out, m.astype(np.float32).astype(np.float64))

    def test_payload_byte_layout(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        formats.write_tensor(path, "asc", np.arange(6.0).reshape(2, 3), dtype="f64")
        raw = Path(path).read_bytes()
        assert raw[:4] == b"CQT1"
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8:8 + hlen])
        assert header["shape"] == [2, 3] and header["layout"] == "row-major"
        payload = raw[8 + hlen:]
        assert payload == b"".join(struct.pack("<d", float(v)) for v in range(6))

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_f32_overflow_rejected_and_nothing_written(self, tmp_path, value):
        path = tmp_path / "t.cqt"
        with pytest.raises(ValueError, match="tensor 'x'.*overflows f32"):
            formats.write_tensor(str(path), "x", [[1.0, value]], dtype="f32")
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_values_written_for_readers_to_reject(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        formats.write_tensor(path, "x", [[np.inf, np.nan, -np.inf]], dtype="f32")
        assert np.array_equal(formats.map_tensor(path),
                              np.array([[np.inf, np.nan, -np.inf]], dtype="<f4"),
                              equal_nan=True)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.cqt")
        Path(path).write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(BadMagicError):
            formats.read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        formats.write_tensor(path, "m", np.eye(3))
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:-8])
        with pytest.raises(TruncatedPayloadError):
            formats.read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        formats.write_tensor(path, "m", np.eye(2))
        with open(path, "ab") as f:
            f.write(b"extra")
        with pytest.raises(TruncatedPayloadError):
            formats.read_tensor(path)

    def test_unsupported_dtype(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        with pytest.raises(UnsupportedDtypeError):
            formats.write_tensor(path, "m", np.eye(2), dtype="i8")
        formats.write_tensor(path, "m", np.eye(2))
        raw = bytearray(Path(path).read_bytes())
        header = {"name": "m", "dtype": "u16", "shape": [2, 2],
                  "layout": "row-major"}
        h = json.dumps(header).encode()
        Path(path).write_bytes(b"CQT1" + struct.pack("<I", len(h)) + h + bytes(32))
        with pytest.raises(UnsupportedDtypeError):
            formats.read_tensor(path)

    def test_header_missing_field(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        h = json.dumps({"name": "m"}).encode()
        Path(path).write_bytes(b"CQT1" + struct.pack("<I", len(h)) + h)
        with pytest.raises(HeaderMismatchError):
            formats.read_tensor(path)

    def test_zero_shape_rejected(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        h = json.dumps({"name": "m", "dtype": "f64", "shape": [0, 2],
                        "layout": "row-major"}).encode()
        Path(path).write_bytes(b"CQT1" + struct.pack("<I", len(h)) + h)
        with pytest.raises(HeaderMismatchError):
            formats.read_tensor(path)


def write_raw(path, magic, header, payload=b""):
    h = json.dumps(header).encode()
    with open(path, "wb") as f:
        f.write(magic + struct.pack("<I", len(h)) + h + payload)


def read_raw(path):
    with open(path, "rb") as f:
        return f.read()


GOOD_HEADER = {"name": "m", "dtype": "f64", "shape": [2, 2], "layout": "row-major"}
MALFORMED_HEADERS = {
    "not-an-object": [GOOD_HEADER],
    "no-name": {k: v for k, v in GOOD_HEADER.items() if k != "name"},
    "no-dtype": {k: v for k, v in GOOD_HEADER.items() if k != "dtype"},
    "no-shape": {k: v for k, v in GOOD_HEADER.items() if k != "shape"},
    "float-dim": dict(GOOD_HEADER, shape=[1.5, 2]),
    "string-dim": dict(GOOD_HEADER, shape=["2"]),
    "bool-dim": dict(GOOD_HEADER, shape=[True]),
    "shape-not-list": dict(GOOD_HEADER, shape="2"),
    "name-not-string": dict(GOOD_HEADER, name=["m"]),
}


class TestHeaderSchema:
    @pytest.mark.parametrize("reader", [formats.read_tensor, formats.map_tensor],
                             ids=["read", "map"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_tensor_header(self, tmp_path, reader, case):
        path = str(tmp_path / "t.cqt")
        write_raw(path, b"CQT1", MALFORMED_HEADERS[case], bytes(32))
        with pytest.raises(HeaderMismatchError):
            reader(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_bundle_entry(self, tmp_path, case):
        path = str(tmp_path / "s.cqb")
        formats.write_stats(path, [layer_stats()])
        raw = read_raw(path)
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8:8 + hlen])
        entry = MALFORMED_HEADERS[case]
        if isinstance(entry, dict):
            entry = {k: v for k, v in entry.items() if k != "layout"}
        header["tensors"][0] = entry
        write_raw(path, b"CQB1", header, raw[8 + hlen:])
        with pytest.raises(HeaderMismatchError):
            formats.read_stats(path)

    def test_bundle_header_not_an_object(self, tmp_path):
        path = str(tmp_path / "s.cqb")
        write_raw(path, b"CQB1", ["stats"])
        with pytest.raises(HeaderMismatchError):
            formats.read_stats(path)


class TestMapTensor:
    def test_read_only_view_in_file_dtype(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        m = np.random.default_rng(3).standard_normal((5, 3))
        formats.write_tensor(path, "m", m, dtype="f32")
        mapped = formats.map_tensor(path)
        assert mapped.dtype == np.float32 and mapped.shape == (5, 3)
        assert np.array_equal(mapped, m.astype(np.float32))
        with pytest.raises(ValueError):
            mapped[0, 0] = 1.0

    @pytest.mark.parametrize("cut", [-4, 4])
    def test_size_must_match_header(self, tmp_path, cut):
        path = str(tmp_path / "t.cqt")
        formats.write_tensor(path, "m", np.eye(3))
        raw = read_raw(path)
        with open(path, "wb") as f:
            f.write(raw[:cut] if cut < 0 else raw + bytes(cut))
        with pytest.raises(TruncatedPayloadError):
            formats.map_tensor(path)


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCopyFree:
    """Writers write the arrays they are given, and readers allocate little
    beyond the arrays they return (d = 256: 1 MiB of stats tensors)."""

    @pytest.fixture
    def wide(self):
        rng = np.random.default_rng(6)
        d = 256
        stats = stats_from_tensors(rng.standard_normal((2 * d, d)),
                                   rng.standard_normal((d, d)), name="wide")
        return stats, stats.sigma_x.nbytes + stats.sigma_w.nbytes

    def test_write_stats(self, tmp_path, wide):
        stats, nbytes = wide
        assert traced_peak(formats.write_stats, str(tmp_path / "s.cqb"), [stats]) \
            < nbytes / 4

    def test_read_stats(self, tmp_path, wide):
        stats, nbytes = wide
        path = str(tmp_path / "s.cqb")
        formats.write_stats(path, [stats])
        assert traced_peak(formats.read_stats, path) < 1.25 * nbytes

    def test_write_plan(self, tmp_path, wide):
        plan = build_plan(wide[0], 32, 4, 8)
        nbytes = plan.partition.vectors.nbytes + plan.partition.eigenvalues.nbytes
        assert traced_peak(formats.write_plan, str(tmp_path / "p.cqb"), [plan]) \
            < nbytes / 4

    def test_read_plan(self, tmp_path, wide):
        # the basis's float64 copy and one d x d Gram for its orthonormality
        plan = build_plan(wide[0], 32, 4, 8)
        nbytes = plan.partition.vectors.nbytes + plan.partition.eigenvalues.nbytes
        path = str(tmp_path / "p.cqb")
        formats.write_plan(path, [plan])
        assert traced_peak(formats.read_plan, path) < 2.25 * nbytes

    def test_write_f32_tensor_converts_once(self, tmp_path, wide):
        sigma = wide[0].sigma_x
        assert traced_peak(formats.write_tensor, str(tmp_path / "t.cqt"), "s",
                           sigma, "f32") < 1.25 * sigma.nbytes / 2


class TestAtomicWrite:
    def test_concurrent_writers_leave_valid_file_and_no_temp(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        formats.write_tensor(path, "t", np.zeros((4, 4)))
        errors = []

        def writer(k):
            try:
                for i in range(50):
                    formats.write_tensor(path, "t", np.full((4, 4), 100.0 * k + i))
                    out = formats.read_tensor(path)
                    # every read-back is one writer's complete tensor
                    assert out.shape == (4, 4) and np.all(out == out[0, 0])
            except Exception as e:  # surfaced by the assertion below
                errors.append(e)

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert os.listdir(tmp_path) == ["t.cqt"]

    def test_failed_write_removes_temp_and_keeps_target(self, tmp_path, monkeypatch):
        path = str(tmp_path / "t.cqt")
        formats.write_tensor(path, "t", np.eye(2))
        before = read_raw(path)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(formats.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            formats.write_tensor(path, "t", np.zeros((2, 2)))
        assert os.listdir(tmp_path) == ["t.cqt"]
        assert read_raw(path) == before

    def test_unwritable_path_is_named_not_its_temp_file(self, tmp_path):
        path = str(tmp_path / "missing_dir" / "t.cqt")
        with pytest.raises(FileNotFoundError) as e:
            formats.write_tensor(path, "t", np.eye(2))
        assert e.value.filename == path and ".tmp" not in str(e.value)

    def test_file_mode_as_open_creates_it(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        formats.write_tensor(path, "t", np.eye(2))
        ref = tmp_path / "ref"
        ref.write_bytes(b"")
        assert os.stat(path).st_mode == os.stat(ref).st_mode


def layer_stats(seed=0):
    rng = np.random.default_rng(seed)
    return stats_from_tensors(rng.standard_normal((16, 8)),
                              rng.standard_normal((8, 8)), name="layer0")


class TestStatsBundle:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "s.cqb")
        mlp = ProjectionGroup("mlp-input", 4, "mlp0")
        stats = [layer_stats(),
                 calibrate(mlp, [np.eye(4)], [])]
        formats.write_stats(path, stats)
        out = formats.read_stats(path)
        assert len(out) == 2
        for a, b in zip(stats, out):
            assert np.array_equal(a.sigma_x, b.sigma_x)
            assert np.array_equal(a.sigma_w, b.sigma_w)
            assert a.energy_x == b.energy_x and a.energy_w == b.energy_w
            assert a.tokens_seen == b.tokens_seen
            assert a.group == b.group

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "s.cqb"
        formats.write_stats(str(path), [layer_stats()])
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(TruncatedPayloadError):
            formats.read_stats(str(path))

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "s.cqb")
        formats.write_stats(path, [layer_stats()])
        with pytest.raises(HeaderMismatchError):
            formats.read_plan(path)

    @pytest.mark.parametrize("key", ["sigma_x", "sigma_w"])
    def test_non_finite_sigma_exits_2_naming_file_and_tensor(self, tmp_path, capsys,
                                                             key):
        path = str(tmp_path / "s.cqb")
        stats = layer_stats()
        sigma = getattr(stats, key).copy()
        sigma[2, 3] = sigma[3, 2] = np.nan
        formats.write_stats(path, [dataclasses.replace(stats, **{key: sigma})])
        message = f"{path}: tensor '0.{key}' contains non-finite entries"
        with pytest.raises(HeaderMismatchError, match=re.escape(message)):
            formats.read_stats(path)
        out = tmp_path / "p.cqb"
        assert main(["solve", "--stats", path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def _group(**fields):
    return lambda header, key: header["meta"][key][0]["group"].update(fields)


# edits of a valid bundle header; `key` is "groups" (stats) or "plans"
MALFORMED_META = {
    "meta-not-object": lambda header, key: header.update(meta=[]),
    "no-list": lambda header, key: header["meta"].pop(key),
    "list-not-a-list": lambda header, key: header["meta"].update({key: {}}),
    "list-empty": lambda header, key: header["meta"].update({key: []}),
    "entry-not-object": lambda header, key: header["meta"][key].__setitem__(0, "g"),
    "group-not-object": lambda header, key: header["meta"][key][0].update(group="g"),
    "no-dim": lambda header, key: header["meta"][key][0]["group"].pop("dim"),
    "string-dim": _group(dim="8"),
    "float-dim": _group(dim=8.0),
    "bool-dim": _group(dim=True),
    "zero-dim": _group(dim=0),
    "unknown-kind": _group(kind="conv"),
    "name-not-string": _group(name=5),
    "no-name": lambda header, key: header["meta"][key][0]["group"].pop("name"),
    "empty-name": _group(name=""),
    "member-shapes-field": _group(member_shapes=[[8, 8]]),
    "string-head-dim": _group(head_dim="8"),
    "negative-head-index": _group(head_index=-1),
}


def _entry(**fields):
    return lambda header, key: header["meta"][key][0].update(fields)


def _pop(field):
    return lambda header, key: header["meta"][key][0].pop(field)


def _partition(**fields):
    return lambda header, key: header["meta"][key][0]["partition"].update(fields)


def _partition_pop(field):
    return lambda header, key: header["meta"][key][0]["partition"].pop(field)


MALFORMED_STATS_META = {
    "string-energy": _entry(energy_x="1.0"),
    "negative-energy": _entry(energy_w=-1.0),
    "nan-energy": _entry(energy_x=float("nan")),
    "inf-energy": _entry(energy_w=float("inf")),
    "huge-int-energy": _entry(energy_x=10 ** 400),
    "no-energy": _pop("energy_x"),
    "string-tokens": _entry(tokens_seen="16"),
    "bool-tokens": _entry(tokens_seen=True),
}
MALFORMED_PLAN_META = {
    "no-rank": _partition_pop("rank"),
    "string-rank": _partition(rank="3"),
    "float-rank": _partition(rank=2.0),
    "bool-rank": _partition(rank=True),
    "zero-rank": _partition(rank=0),
    "full-rank": _partition(rank=8),
    "no-seed": _partition_pop("seed"),
    "string-seed": _partition(seed="3"),
    "bool-seed": _partition(seed=False),
    "negative-seed": _partition(seed=-1),
    "unknown-rotation": _partition(rotation="givens"),
    "unknown-objective": _entry(objective="nope"),
    # the objective is derived from the lambdas, so a stored one is unknown
    "objective-key": _entry(objective="activation"),
    "negative-lambda": _partition(lambda_x=-1.0),
    "zero-lambdas": _partition(lambda_x=0.0, lambda_w=0.0),
    "string-lambda": _partition(lambda_x="1.0"),
    "bool-lambda": _partition(lambda_w=True),
    "nan-lambda": _partition(lambda_x=float("nan")),
    "inf-lambda": _partition(lambda_w=float("-inf")),
    "no-bits-low": _pop("bits_low"),
    "no-bits-high": _pop("bits_high"),
    "string-bits": _entry(bits_low="4"),
    "bool-bits": _entry(bits_high=True),
    "bits-below-2": _entry(bits_low=1),
    "bits-above-16": _entry(bits_high=17),
    "high-bits-below-low": _entry(bits_high=2),
    "no-partition": _pop("partition"),
    "partition-not-object": _entry(partition=[]),
}


def edit_bundle_header(path, edit, key):
    raw = read_raw(path)
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + hlen])
    edit(header, key)
    write_raw(path, b"CQB1", header, raw[8 + hlen:])


def plan_inputs(tmp_path):
    rng = np.random.default_rng(1)
    x, w = rng.standard_normal((16, 8)), rng.standard_normal((8, 8))
    x_path, w_path = str(tmp_path / "x.cqt"), str(tmp_path / "w.cqt")
    formats.write_tensor(x_path, "x", x)
    formats.write_tensor(w_path, "w", w)
    return x, w, x_path, w_path


class TestBundleMetaSchema:
    """Malformed bundle metadata is a schema error: HeaderMismatchError from
    the reader, exit 2 from the CLI, and no output file."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_META | MALFORMED_STATS_META))
    def test_stats(self, tmp_path, capsys, case):
        path = str(tmp_path / "s.cqb")
        formats.write_stats(path, [layer_stats()])
        edit_bundle_header(path, (MALFORMED_META | MALFORMED_STATS_META)[case], "groups")
        with pytest.raises(HeaderMismatchError):
            formats.read_stats(path)
        out = tmp_path / "p.cqb"
        assert main(["solve", "--stats", path, "--out", str(out)]) == 2
        assert path in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_META | MALFORMED_PLAN_META))
    def test_plan(self, tmp_path, capsys, case):
        x, w, x_path, w_path = plan_inputs(tmp_path)
        path = str(tmp_path / "p.cqb")
        formats.write_plan(path, [build_plan(stats_from_tensors(x, w), 2, 4, 8)])
        edit_bundle_header(path, (MALFORMED_META | MALFORMED_PLAN_META)[case], "plans")
        with pytest.raises(HeaderMismatchError):
            formats.read_plan(path)
        out = tmp_path / "r.jsonl"
        assert main(["simulate", "--plan", path, "--x", x_path, "--w", w_path,
                     "--out", str(out)]) == 2
        assert path in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("key", ["groups", "plans"])
def test_empty_group_name_exits_2_naming_name(tmp_path, capsys, key):
    x, w, x_path, w_path = plan_inputs(tmp_path)
    path = str(tmp_path / "bundle.cqb")
    if key == "groups":
        formats.write_stats(path, [stats_from_tensors(x, w)])
        argv = ["solve", "--stats", path]
    else:
        formats.write_plan(path, [build_plan(stats_from_tensors(x, w), 2, 4, 8)])
        argv = ["simulate", "--plan", path, "--x", x_path, "--w", w_path]
    edit_bundle_header(path, _group(name=""), key)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert (f"{path}: {key}[0].group: name must be a non-empty string, got ''"
            in capsys.readouterr().err)
    assert not out.exists()


def bundle_tensors(path):
    """A bundle's header and its tensors by name, in file order."""
    raw = read_raw(path)
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + hlen])
    out, offset = {}, 8 + hlen
    for entry in header["tensors"]:
        n = int(np.prod(entry["shape"]))
        out[entry["name"]] = np.frombuffer(raw, "<f8", n, offset).reshape(entry["shape"])
        offset += 8 * n
    return header, out


def _with_tensors(edit):
    def rewrite(path):
        header, tensors = bundle_tensors(path)
        tensors = edit(dict(tensors))
        header["tensors"] = [{"name": k, "dtype": "f64", "shape": list(v.shape)}
                             for k, v in tensors.items()]
        write_raw(path, b"CQB1", header,
                  b"".join(np.ascontiguousarray(v, "<f8").tobytes()
                           for v in tensors.values()))
    return rewrite


def _old_format(t):
    # the plan tensors this format stored before u was derived on read
    v = t.pop("0.vectors")
    eig = t.pop("0.eigenvalues")
    return {"0.p_h": v[:, :2], "0.p_l": v[:, 2:], "0.r_h": np.eye(2),
            "0.r_l": np.eye(6), "0.u": v, "0.eigenvalues": eig}


def _scaled(t):
    t["0.vectors"] = 1.001 * t["0.vectors"]
    return t


def _nan(t):
    t["0.vectors"] = t["0.vectors"].copy()
    t["0.vectors"][3, 3] = np.nan
    return t


# edits of a valid plan's tensors (one group, d=8, rank 2), and a word the
# error message must contain
MALFORMED_PLAN_TENSORS = {
    "old-format": (_old_format, "'0.vectors'"),
    "no-eigenvalues": (lambda t: {"0.vectors": t["0.vectors"]}, "'0.eigenvalues'"),
    "vectors-not-square": (lambda t: t | {"0.vectors": t["0.vectors"][:, :7]},
                           "'0.vectors'"),
    "vectors-wrong-dim": (lambda t: t | {"0.vectors": np.eye(7)}, "'0.vectors'"),
    "eigenvalues-wrong-length": (lambda t: t | {"0.eigenvalues": np.ones(7)},
                                 "'0.eigenvalues'"),
    "eigenvalues-2d": (lambda t: t | {"0.eigenvalues": np.ones((1, 8))},
                       "'0.eigenvalues'"),
    "basis-not-orthonormal": (_scaled, "V^T V"),
    "basis-nan": (_nan, "tensor '0.vectors' contains non-finite entries"),
    "eigenvalues-nan": (lambda t: t | {"0.eigenvalues": np.full(8, np.nan)},
                        "tensor '0.eigenvalues' contains non-finite entries"),
}


class TestPlanSchema:
    @pytest.mark.parametrize("case", sorted(MALFORMED_PLAN_TENSORS))
    def test_tensors(self, tmp_path, capsys, case):
        x, w, x_path, w_path = plan_inputs(tmp_path)
        path = str(tmp_path / "p.cqb")
        formats.write_plan(path, [build_plan(stats_from_tensors(x, w), 2, 4, 8)])
        edit, word = MALFORMED_PLAN_TENSORS[case]
        _with_tensors(edit)(path)
        with pytest.raises(HeaderMismatchError, match=re.escape(word)):
            formats.read_plan(path)
        out = tmp_path / "r.jsonl"
        assert main(["simulate", "--plan", path, "--x", x_path, "--w", w_path,
                     "--out", str(out)]) == 2
        assert word in capsys.readouterr().err
        assert not out.exists()

    def test_plan_with_quantizer_specs_exits_2_naming_them(self, tmp_path, capsys):
        # the format of earlier versions: four quantizer specs, no bit-widths
        x, w, x_path, w_path = plan_inputs(tmp_path)
        path = str(tmp_path / "p.cqb")
        formats.write_plan(path, [build_plan(stats_from_tensors(x, w), 2, 4, 8)])
        spec = {"bits": 4, "symmetric": False, "granularity": "per-token",
                "head_dim": None}

        def parent_format(header, key):
            entry = header["meta"][key][0]
            del entry["bits_low"], entry["bits_high"]
            entry["specs"] = dict.fromkeys(("low", "high", "low_w", "high_w"), spec)

        edit_bundle_header(path, parent_format, "plans")
        out = tmp_path / "r.jsonl"
        assert main(["simulate", "--plan", path, "--x", x_path, "--w", w_path,
                     "--out", str(out)]) == 2
        assert "unknown field(s) ['specs']" in capsys.readouterr().err
        assert not out.exists()

    def test_flat_plan_entry_exits_2_naming_partition(self, tmp_path, capsys):
        # the layout of earlier versions: the partition's fields beside the plan's
        x, w, x_path, w_path = plan_inputs(tmp_path)
        path = str(tmp_path / "p.cqb")
        formats.write_plan(path, [build_plan(stats_from_tensors(x, w), 2, 4, 8)])

        def flat_format(header, key):
            entry = header["meta"][key][0]
            entry |= entry.pop("partition")

        edit_bundle_header(path, flat_format, "plans")
        out = tmp_path / "r.jsonl"
        assert main(["simulate", "--plan", path, "--x", x_path, "--w", w_path,
                     "--out", str(out)]) == 2
        assert f"{path}: plans[0].partition must be a JSON object" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_stats_tensor_of_wrong_shape(self, tmp_path, capsys):
        path = str(tmp_path / "s.cqb")
        formats.write_stats(path, [layer_stats()])
        _with_tensors(lambda t: t | {"0.sigma_w": np.eye(7)})(path)
        with pytest.raises(HeaderMismatchError, match="'0.sigma_w'"):
            formats.read_stats(path)
        assert main(["solve", "--stats", path, "--out", str(tmp_path / "p.cqb")]) == 2


class TestPlanBundle:
    def test_holds_one_basis_and_its_eigenvalues_per_group(self, tmp_path):
        x, w, _, _ = plan_inputs(tmp_path)
        stats = stats_from_tensors(x, w)
        path = str(tmp_path / "p.cqb")
        plans = [build_plan(stats, 2, 4, 8),
                 build_plan(stats, 3, 4, 8, rotation="hadamard")]
        formats.write_plan(path, plans)
        header, tensors = bundle_tensors(path)
        assert [(e["name"], e["shape"]) for e in header["tensors"]] == [
            ("0.vectors", [8, 8]), ("0.eigenvalues", [8]),
            ("1.vectors", [8, 8]), ("1.eigenvalues", [8])]
        # each entry is its plan's own JSON object, the partition nested
        assert header["meta"]["plans"] == [p.to_json() for p in plans]
        assert [(p["partition"]["rank"], p["partition"]["rotation"])
                for p in header["meta"]["plans"]] == [(2, "random"), (3, "hadamard")]
        plan = build_plan(stats, 2, 4, 8)
        assert np.array_equal(tensors["0.vectors"], plan.partition.vectors)
        assert np.array_equal(tensors["0.eigenvalues"], plan.partition.eigenvalues)

    def test_hadamard_fallback_round_trip_is_bit_identical(self, tmp_path,
                                                            rotation_calls):
        # d=32, r=4: the high block is Hadamard, the low block of 28 is not a
        # power of two and falls back to a seeded random rotation
        rng = np.random.default_rng(5)
        x, w = rng.standard_normal((128, 32)), rng.standard_normal((32, 16))
        plan = build_plan(stats_from_tensors(x, w), 4, 4, 8, seed=9,
                          rotation="hadamard")
        path = str(tmp_path / "p.cqb")
        formats.write_plan(path, [plan])
        loaded = formats.read_plan(path)[0]
        assert rotation_calls == []  # u is derived on first use
        assert loaded.partition.rotation == "hadamard"
        assert np.array_equal(loaded.partition.u, plan.partition.u)
        # the second u reads it back
        assert rotation_calls == [(28, (9, LOW_ROTATION, 0))]
        assert np.array_equal(execute_plan(x, w, loaded)[0], execute_plan(x, w, plan)[0])

    def test_read_derives_no_rotation(self, tmp_path, rotation_calls):
        rng = np.random.default_rng(6)
        plans = []
        for name in ("a", "b"):
            x, w = rng.standard_normal((16, 8)), rng.standard_normal((8, 8))
            plans.append(build_plan(stats_from_tensors(x, w, name=name), 2, 4, 8,
                                    seed=3))
        path = str(tmp_path / "p.cqb")
        formats.write_plan(path, plans)
        loaded = formats.read_plan(path)
        assert rotation_calls == []
        # groups of equal width and seed derive their u from one pair of rotations
        for a, b in zip(plans, loaded):
            assert np.array_equal(a.partition.u, b.partition.u)
        assert rotation_calls == [(2, (3, HIGH_ROTATION, 0)), (6, (3, LOW_ROTATION, 0))]

    def test_round_trip_and_reexecution(self, tmp_path):
        rng = np.random.default_rng(1)
        x, w = rng.standard_normal((16, 8)), rng.standard_normal((8, 8))
        plan = build_plan(stats_from_tensors(x, w, name="layer0"), 2, 4, 8, seed=3)
        path = str(tmp_path / "p.cqb")
        formats.write_plan(path, [plan])
        loaded = formats.read_plan(path)[0]
        assert np.array_equal(loaded.partition.u, plan.partition.u)
        assert (loaded.bits_low, loaded.bits_high) == (plan.bits_low, plan.bits_high)
        assert loaded.objective == plan.objective
        assert loaded.partition.seed == plan.partition.seed
        assert loaded.partition.rotation == plan.partition.rotation
        y1, r1 = execute_plan(x, w, plan)
        y2, r2 = execute_plan(x, w, loaded)
        assert np.array_equal(y1, y2)
        assert r1.exact_error == r2.exact_error

    def test_truncated_bundle(self, tmp_path):
        plan = build_plan(layer_stats(), 2, 4, 8)
        path = str(tmp_path / "p.cqb")
        formats.write_plan(path, [plan])
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:-16])
        with pytest.raises(TruncatedPayloadError):
            formats.read_plan(path)


class TestReports:
    def make_reports(self):
        rng = np.random.default_rng(2)
        x, w = rng.standard_normal((16, 8)), rng.standard_normal((8, 4))
        plan = build_plan(stats_from_tensors(x, w, name="g"), 2, 4, 8)
        _, rep = execute_plan(x, w, plan)
        return [rep]

    def varied_reports(self):
        """The three objectives' reports on one layer, and one at other
        bit-widths whose relative reduction is null."""
        rng = np.random.default_rng(2)
        x, w = rng.standard_normal((16, 8)), rng.standard_normal((8, 4))
        plan = build_plan(stats_from_tensors(x, w, name="g"), 2, 3, 6)
        return analyze_layer(x, w, 2, 4, 8) + [measure_plan(x, w, plan)]

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        reps = self.varied_reports()
        formats.write_report(path, reps)
        assert formats.read_report(path) == reps

    def test_csv_report_is_rejected(self, tmp_path):
        # the CSV layout earlier versions could write: a header, then rows
        path = str(tmp_path / "r.csv")
        row = self.make_reports()[0].to_json()
        Path(path).write_text(",".join(row) + "\n"
                              + ",".join(str(v) for v in row.values()) + "\n")
        with pytest.raises(HeaderMismatchError,
                           match=re.escape(f"{path}: report row 0 is not JSON")):
            formats.read_report(path)

    def test_deeply_nested_jsonl_is_schema_error(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        Path(path).write_text('{"group": ' + "[" * 100_000 + "]" * 100_000 + "}\n")
        with pytest.raises(HeaderMismatchError, match="report row 0 is not JSON"):
            formats.read_report(path)

    def test_no_rows_is_an_empty_report(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        formats.write_report(path, [])
        assert Path(path).read_bytes() == b""
        assert formats.read_report(path) == []

    @pytest.mark.parametrize("text", ["hello\n", "[1, 2]\n", "group,objective\n"])
    def test_csv_header_is_checked_without_rows(self, tmp_path, text):
        # a line that is not a report row, alone, is not an empty report
        path = tmp_path / "r.csv"
        path.write_text(text)
        with pytest.raises(HeaderMismatchError, match="report row 0"):
            formats.read_report(str(path))

    def test_integer_cells_read_as_numbers(self, tmp_path):
        # an int beyond int64 is a finite number
        path = str(tmp_path / "r.jsonl")
        row = self.make_reports()[0].to_json() | {"exact_error": 10 ** 30}
        Path(path).write_text(json.dumps(row) + "\n")
        assert formats.read_report(path)[0].exact_error == 10 ** 30

    @pytest.mark.parametrize("field,value", [
        ("rank", "8"), ("exact_error", math.nan), ("exact_error", math.inf),
        ("bits_low", 1), ("extra", 0.0), ("exact_error_root", 0.0)])
    def test_jsonl_bad_cell_names_row_and_field(self, tmp_path, field, value):
        path = str(tmp_path / "r.jsonl")
        row = self.make_reports()[0].to_json() | {field: value}
        Path(path).write_text(json.dumps(row) + "\n")
        with pytest.raises(HeaderMismatchError, match=f"row 0: .*{field}"):
            formats.read_report(path)

    @pytest.mark.parametrize("field,cell", [
        ("rank", "8.0"), ("exact_error", "nan"), ("exact_error", "inf"),
        ("bits_low", "1"), ("seed", "seven"), ("extra", "0.0")])
    def test_csv_bad_cell_names_row_and_field(self, tmp_path, field, cell):
        # a cell as a CSV report held it, as text, is not read as a number
        path = str(tmp_path / "r.jsonl")
        row = self.make_reports()[0].to_json() | {field: cell}
        Path(path).write_text(json.dumps(row) + "\n")
        with pytest.raises(HeaderMismatchError, match=f"row 0: .*{field}"):
            formats.read_report(path)

    def test_jsonl_keys_sorted_one_row_per_line(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        reps = self.varied_reports()
        formats.write_report(path, reps)
        lines = Path(path).read_text().splitlines()
        assert len(lines) == len(reps)
        for line, rep in zip(lines, reps):
            assert list(json.loads(line)) == sorted(formats.REPORT_COLUMNS)
            assert line == json.dumps(rep.to_json(), sort_keys=True)

    def test_csv_missing_column_is_schema_error(self, tmp_path):
        path = str(tmp_path / "r.csv")
        Path(path).write_text("group,objective\na,joint\n")
        with pytest.raises(HeaderMismatchError):
            formats.read_report(path)

    @pytest.mark.parametrize("line", ["5", "[]", '"row"', '{"group": "g"}'])
    def test_jsonl_row_must_hold_every_column(self, tmp_path, line):
        path = str(tmp_path / "r.jsonl")
        formats.write_report(path, self.make_reports())
        Path(path).write_text(Path(path).read_text() + line + "\n")
        with pytest.raises(HeaderMismatchError, match="row 1"):
            formats.read_report(path)

    def test_csv_short_row_is_schema_error(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        formats.write_report(path, self.make_reports())
        Path(path).write_text(Path(path).read_text() + "g,joint\n")
        with pytest.raises(HeaderMismatchError, match="row 1"):
            formats.read_report(path)

