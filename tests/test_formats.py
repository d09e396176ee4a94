import json
import os
import struct
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from subquant import formats
from subquant.cli import main
from subquant.calib import kv_value_stats
from subquant.engine import build_plan, execute_plan, stats_from_tensors
from subquant.errors import (
    BadMagicError,
    HeaderMismatchError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
)


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
        stats = [layer_stats(), kv_value_stats(np.eye(4), np.eye(4), name="kv0")]
        formats.write_stats(path, stats)
        out = formats.read_stats(path)
        assert len(out) == 2
        for a, b in zip(stats, out):
            assert np.array_equal(a.sigma_x, b.sigma_x)
            assert np.array_equal(a.sigma_w, b.sigma_w)
            assert a.energy_x == b.energy_x and a.energy_w == b.energy_w
            assert a.tokens_seen == b.tokens_seen
            assert a.group == b.group

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "s.cqb")
        formats.write_stats(path, [layer_stats()])
        with pytest.raises(HeaderMismatchError):
            formats.read_plan(path)


def _group(**fields):
    return lambda header, key: header["meta"][key][0]["group"].update(fields)


# edits of a valid bundle header; `key` is "groups" (stats) or "plans"
MALFORMED_META = {
    "meta-not-object": lambda header, key: header.update(meta=[]),
    "no-list": lambda header, key: header["meta"].pop(key),
    "list-not-a-list": lambda header, key: header["meta"].update({key: {}}),
    "entry-not-object": lambda header, key: header["meta"][key].__setitem__(0, "g"),
    "group-not-object": lambda header, key: header["meta"][key][0].update(group="g"),
    "no-dim": lambda header, key: header["meta"][key][0]["group"].pop("dim"),
    "string-dim": _group(dim="8"),
    "float-dim": _group(dim=8.0),
    "bool-dim": _group(dim=True),
    "zero-dim": _group(dim=0),
    "unknown-kind": _group(kind="conv"),
}
MALFORMED_PLAN_META = {
    "no-specs": lambda header, key: header["meta"][key][0].pop("specs"),
    "specs-not-object": lambda header, key: header["meta"][key][0].update(specs=[]),
}


def edit_bundle_header(path, edit, key):
    raw = read_raw(path)
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + hlen])
    edit(header, key)
    write_raw(path, b"CQB1", header, raw[8 + hlen:])


class TestBundleMetaSchema:
    """Malformed bundle metadata is a schema error: HeaderMismatchError from
    the reader, exit 2 from the CLI, and no output file."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_META))
    def test_stats(self, tmp_path, capsys, case):
        path = str(tmp_path / "s.cqb")
        formats.write_stats(path, [layer_stats()])
        edit_bundle_header(path, MALFORMED_META[case], "groups")
        with pytest.raises(HeaderMismatchError):
            formats.read_stats(path)
        out = tmp_path / "p.cqb"
        assert main(["solve", "--stats", path, "--out", str(out)]) == 2
        assert path in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_META | MALFORMED_PLAN_META))
    def test_plan(self, tmp_path, capsys, case):
        rng = np.random.default_rng(1)
        x, w = rng.standard_normal((16, 8)), rng.standard_normal((8, 8))
        x_path, w_path = str(tmp_path / "x.cqt"), str(tmp_path / "w.cqt")
        formats.write_tensor(x_path, "x", x)
        formats.write_tensor(w_path, "w", w)
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


class TestPlanBundle:
    def test_round_trip_and_reexecution(self, tmp_path):
        rng = np.random.default_rng(1)
        x, w = rng.standard_normal((16, 8)), rng.standard_normal((8, 8))
        plan = build_plan(stats_from_tensors(x, w, name="layer0"), 2, 4, 8, seed=3)
        path = str(tmp_path / "p.cqb")
        formats.write_plan(path, [plan])
        loaded = formats.read_plan(path)[0]
        assert np.array_equal(loaded.partition.u, plan.partition.u)
        assert loaded.spec_low == plan.spec_low
        assert loaded.objective == plan.objective and loaded.seed == plan.seed
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

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        reps = self.make_reports()
        formats.write_report(path, reps)
        rows = formats.read_report(path)
        assert rows[0]["exact_error"] == reps[0].exact_error
        assert rows[0]["group"] == "g"

    def test_csv_column_order(self, tmp_path):
        path = str(tmp_path / "r.csv")
        formats.write_report(path, self.make_reports(), fmt="csv")
        header = Path(path).read_text().splitlines()[0].split(",")
        assert header == formats.REPORT_COLUMNS

    def test_csv_missing_column_is_schema_error(self, tmp_path):
        path = str(tmp_path / "r.csv")
        Path(path).write_text("group,objective\na,joint\n")
        with pytest.raises(HeaderMismatchError):
            formats.read_report(path)

    def test_append(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        reps = self.make_reports()
        formats.write_report(path, reps)
        formats.write_report(path, reps, append=True)
        assert len(formats.read_report(path)) == 2
