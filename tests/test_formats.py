import json
import struct

import numpy as np
import pytest

from subquant import formats
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
        raw = open(path, "rb").read()
        assert raw[:4] == b"CQT1"
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8:8 + hlen])
        assert header["shape"] == [2, 3] and header["layout"] == "row-major"
        payload = raw[8 + hlen:]
        assert payload == b"".join(struct.pack("<d", float(v)) for v in range(6))

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.cqt")
        open(path, "wb").write(b"NOPE" + b"\x00" * 16)
        with pytest.raises(BadMagicError):
            formats.read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        formats.write_tensor(path, "m", np.eye(3))
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-8])
        with pytest.raises(TruncatedPayloadError):
            formats.read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        formats.write_tensor(path, "m", np.eye(2))
        open(path, "ab").write(b"extra")
        with pytest.raises(TruncatedPayloadError):
            formats.read_tensor(path)

    def test_unsupported_dtype(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        with pytest.raises(UnsupportedDtypeError):
            formats.write_tensor(path, "m", np.eye(2), dtype="i8")
        formats.write_tensor(path, "m", np.eye(2))
        raw = bytearray(open(path, "rb").read())
        header = {"name": "m", "dtype": "u16", "shape": [2, 2],
                  "layout": "row-major"}
        h = json.dumps(header).encode()
        open(path, "wb").write(b"CQT1" + struct.pack("<I", len(h)) + h + bytes(32))
        with pytest.raises(UnsupportedDtypeError):
            formats.read_tensor(path)

    def test_header_missing_field(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        h = json.dumps({"name": "m"}).encode()
        open(path, "wb").write(b"CQT1" + struct.pack("<I", len(h)) + h)
        with pytest.raises(HeaderMismatchError):
            formats.read_tensor(path)

    def test_zero_shape_rejected(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        h = json.dumps({"name": "m", "dtype": "f64", "shape": [0, 2],
                        "layout": "row-major"}).encode()
        open(path, "wb").write(b"CQT1" + struct.pack("<I", len(h)) + h)
        with pytest.raises(HeaderMismatchError):
            formats.read_tensor(path)


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
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-16])
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
        header = open(path).readline().strip().split(",")
        assert header == formats.REPORT_COLUMNS

    def test_csv_missing_column_is_schema_error(self, tmp_path):
        path = str(tmp_path / "r.csv")
        open(path, "w").write("group,objective\na,joint\n")
        with pytest.raises(HeaderMismatchError):
            formats.read_report(path)

    def test_append(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        reps = self.make_reports()
        formats.write_report(path, reps)
        formats.write_report(path, reps, append=True)
        assert len(formats.read_report(path)) == 2
