import dataclasses
import json
import math
import os
import re
import stat
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
    MAX_BYTES,
    HeaderMismatchError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
)
from subquant.linalg import HIGH_ROTATION, LOW_ROTATION


def frame(header, payload: bytes = b"") -> bytes:
    """A safetensors file: the u64-LE length of `header` (a JSON value, or
    its bytes) padded with spaces to a multiple of 8, the header, then
    `payload`."""
    h = header if isinstance(header, bytes) else json.dumps(header).encode()
    h += b" " * (-len(h) % 8)
    return struct.pack("<Q", len(h)) + h + payload


def old_frame(magic: bytes, header: dict, payload: bytes = b"") -> bytes:
    """A file in the CQT1/CQB1 framing earlier versions wrote: a magic, a
    u32-LE header length, the JSON header, then the payload."""
    h = json.dumps(header).encode()
    return magic + struct.pack("<I", len(h)) + h + payload


def write_raw(path, header, payload=b""):
    Path(path).write_bytes(frame(header, payload))


def read_raw(path):
    with open(path, "rb") as f:
        return f.read()


def split(path):
    """A file's JSON header and its payload."""
    raw = read_raw(path)
    (hlen,) = struct.unpack("<Q", raw[:8])
    return json.loads(raw[8:8 + hlen]), raw[8 + hlen:]


def exits_2_naming(capsys, bad, *argv):
    """The CLI run `argv` exits 2 with one error line, which names the file
    `bad`, and writes no output."""
    out = Path(bad).parent / "cli.out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err, err
    assert not out.exists()


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
        (hlen,) = struct.unpack("<Q", raw[:8])
        assert (8 + hlen) % 8 == 0
        assert json.loads(raw[8:8 + hlen]) == {"asc": {"dtype": "F64", "shape": [2, 3],
                                                       "data_offsets": [0, 48]}}
        payload = raw[8 + hlen:]
        assert payload == b"".join(struct.pack("<d", float(v)) for v in range(6))

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_f32_overflow_rejected_and_nothing_written(self, tmp_path, value):
        path = tmp_path / "t.cqt"
        with pytest.raises(ValueError, match="tensor 'x'.*overflows f32"):
            formats.write_tensor(str(path), "x", [[1.0, value]], dtype="f32")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("matrix, shape", [(np.zeros((0, 5)), "[0, 5]"),
                                               (np.float64(3.0), "[]"),
                                               ([[]], "[1, 0]")],
                             ids=["zero-rows", "0-d", "zero-columns"])
    def test_shape_the_readers_reject_is_not_written(self, tmp_path, matrix, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"tensor 'x': shape must be a non-empty list of ints >= 1, got {shape}")):
            formats.write_tensor(str(tmp_path / "t.cqt"), "x", matrix)
        assert list(tmp_path.iterdir()) == []

    def test_reserved_name_is_not_written(self, tmp_path):
        with pytest.raises(ValueError, match="__metadata__"):
            formats.write_tensor(str(tmp_path / "t.cqt"), "__metadata__", np.eye(2))
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_values_written_for_readers_to_reject(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        formats.write_tensor(path, "x", [[np.inf, np.nan, -np.inf]], dtype="f32")
        assert np.array_equal(formats.map_tensor(path),
                              np.array([[np.inf, np.nan, -np.inf]], dtype="<f4"),
                              equal_nan=True)

    def test_bad_magic(self, tmp_path):
        # a file in the framing earlier versions wrote is not read: its magic
        # and u32 length read as a u64 header length above the cap
        path = str(tmp_path / "old.cqt")
        header = {"name": "m", "dtype": "f64", "shape": [2, 2], "layout": "row-major"}
        Path(path).write_bytes(old_frame(b"CQT1", header, bytes(32)))
        for reader in (formats.read_tensor, formats.map_tensor):
            with pytest.raises(HeaderMismatchError,
                               match=re.escape(f"{path}: header length")):
                reader(path)

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

    def test_unsupported_dtype(self, tmp_path, capsys):
        path = str(tmp_path / "t.cqt")
        with pytest.raises(UnsupportedDtypeError):
            formats.write_tensor(path, "m", np.eye(2), dtype="i8")
        # dtypes safetensors defines that this tool does not read, a name in
        # the wrong case, and one that is not a string
        for dtype in ("BF16", "F16", "I64", "f64", 8):
            write_raw(path, {"m": {"dtype": dtype, "shape": [2, 2],
                                   "data_offsets": [0, 32]}}, bytes(32))
            with pytest.raises(UnsupportedDtypeError, match=re.escape(path)):
                formats.read_tensor(path)
            exits_2_naming(capsys, path, "analyze", "--x", path, "--w", path)

    def test_header_missing_field(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        write_raw(path, {"m": {"dtype": "F64"}})
        with pytest.raises(HeaderMismatchError):
            formats.read_tensor(path)

    def test_zero_shape_rejected(self, tmp_path):
        path = str(tmp_path / "t.cqt")
        write_raw(path, {"m": {"dtype": "F64", "shape": [0, 2], "data_offsets": [0, 0]}})
        with pytest.raises(HeaderMismatchError):
            formats.read_tensor(path)


GOOD_ENTRY = {"dtype": "F64", "shape": [2, 2], "data_offsets": [0, 32]}


def _entry_edit(**fields):
    return lambda header, name: header[name].update(fields)


def _entry_pop(field):
    return lambda header, name: header[name].pop(field)


# edits of a valid header at the entry of tensor `name`. A tensor's name is
# its key: "no-name" moves the entry under the reserved `__metadata__` key,
# and "name-not-string" gives `__metadata__` a `name` that is not a string
MALFORMED_HEADERS = {
    "not-an-object": lambda header, name: header.update({name: [header[name]]}),
    "no-name": lambda header, name: header.update(__metadata__=header.pop(name)),
    "no-dtype": _entry_pop("dtype"),
    "no-shape": _entry_pop("shape"),
    "no-offsets": _entry_pop("data_offsets"),
    "float-dim": _entry_edit(shape=[1.5, 2]),
    "string-dim": _entry_edit(shape=["2"]),
    "bool-dim": _entry_edit(shape=[True]),
    "shape-not-list": _entry_edit(shape="2"),
    "above-cap": _entry_edit(shape=[MAX_BYTES, 2]),
    "offsets-not-a-list": _entry_edit(data_offsets="0"),
    "offsets-not-two": _entry_edit(data_offsets=[0]),
    "float-offset": _entry_edit(data_offsets=[0, 32.0]),
    "negative-offset": _entry_edit(data_offsets=[-32, 0]),
    "offsets-short-of-shape": _entry_edit(data_offsets=[0, 24]),
    "name-not-string": lambda header, name: header.setdefault(
        "__metadata__", {}).update(name=["m"]),
    "metadata-not-object": lambda header, name: header.update(__metadata__="m"),
}

# whole files that break the framing, and the error each raises
MALFORMED_FRAMES = {
    "shorter-than-length": (b"\x10\x00\x00", HeaderMismatchError),
    "length-past-eof": (struct.pack("<Q", 64) + b"{}      ", HeaderMismatchError),
    "length-above-cap": (struct.pack("<Q", MAX_BYTES + 8) + b"{}      ",
                         HeaderMismatchError),
    "not-utf8": (frame(b'{"\xff": 1}'), HeaderMismatchError),
    "not-json": (frame(b"{nope"), HeaderMismatchError),
    "not-an-object": (frame([GOOD_ENTRY]), HeaderMismatchError),
    "overlap": (frame({"a": GOOD_ENTRY, "b": dict(GOOD_ENTRY, data_offsets=[24, 56])},
                      bytes(56)), HeaderMismatchError),
    "gap": (frame({"a": GOOD_ENTRY, "b": dict(GOOD_ENTRY, data_offsets=[40, 72])},
                  bytes(72)), HeaderMismatchError),
    "not-from-0": (frame({"a": dict(GOOD_ENTRY, data_offsets=[8, 40])}, bytes(40)),
                   HeaderMismatchError),
    "payload-short": (frame({"a": GOOD_ENTRY}, bytes(24)), TruncatedPayloadError),
    "payload-past-end": (frame({"a": GOOD_ENTRY}, bytes(40)), TruncatedPayloadError),
    "no-tensor": (frame({"__metadata__": {}}), HeaderMismatchError),
    "two-tensors": (frame({"a": GOOD_ENTRY, "b": dict(GOOD_ENTRY, data_offsets=[32, 64])},
                          bytes(64)), HeaderMismatchError),
}


class TestHeaderSchema:
    """A malformed header raises a FormatError naming the file; the CLI exits
    2 on it with one error line naming the file."""

    @pytest.mark.parametrize("reader", [formats.read_tensor, formats.map_tensor],
                             ids=["read", "map"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_tensor_header(self, tmp_path, capsys, reader, case):
        path = str(tmp_path / "t.cqt")
        header = {"m": dict(GOOD_ENTRY)}
        MALFORMED_HEADERS[case](header, "m")
        write_raw(path, header, bytes(32))
        with pytest.raises(HeaderMismatchError, match=re.escape(path)):
            reader(path)
        exits_2_naming(capsys, path, "analyze", "--x", path, "--w", path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_bundle_entry(self, tmp_path, capsys, case):
        path = str(tmp_path / "s.cqb")
        formats.write_stats(path, [layer_stats()])
        header, payload = split(path)
        MALFORMED_HEADERS[case](header, "0.sigma_x")
        write_raw(path, header, payload)
        with pytest.raises(HeaderMismatchError, match=re.escape(path)):
            formats.read_stats(path)
        exits_2_naming(capsys, path, "solve", "--stats", path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_FRAMES))
    def test_malformed_frame(self, tmp_path, capsys, case):
        path = str(tmp_path / "t.cqt")
        raw, error = MALFORMED_FRAMES[case]
        Path(path).write_bytes(raw)
        with pytest.raises(error, match=re.escape(path)):
            formats.map_tensor(path)
        exits_2_naming(capsys, path, "analyze", "--x", path, "--w", path)

    def test_bundle_header_not_an_object(self, tmp_path):
        path = str(tmp_path / "s.cqb")
        write_raw(path, ["stats"])
        with pytest.raises(HeaderMismatchError):
            formats.read_stats(path)

    @pytest.mark.parametrize("metadata", [{}, {"kind": "stats"},
                                          {"kind": "stats", "meta": "{nope"}],
                             ids=["no-kind", "no-meta", "meta-not-json"])
    def test_bundle_metadata(self, tmp_path, capsys, metadata):
        path = str(tmp_path / "s.cqb")
        formats.write_stats(path, [layer_stats()])
        header, payload = split(path)
        write_raw(path, header | {"__metadata__": metadata}, payload)
        with pytest.raises(HeaderMismatchError, match=re.escape(path)):
            formats.read_stats(path)
        exits_2_naming(capsys, path, "solve", "--stats", path)


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

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_every_header_length_maps_aligned(self, tmp_path, dtype):
        # names of 1 to 9 characters give every header length mod 8
        residues = set()
        for n in range(1, 10):
            path = str(tmp_path / f"{n}.cqt")
            formats.write_tensor(path, "x" * n, np.ones((3, 5)), dtype=dtype)
            raw = read_raw(path)
            (hlen,) = struct.unpack("<Q", raw[:8])
            residues.add(len(raw[8:8 + hlen].rstrip()) % 8)
            assert formats.map_tensor(path).flags.aligned
        assert residues == set(range(8))

    def test_stats_and_plan_tensors_map_aligned(self, tmp_path):
        rng = np.random.default_rng(4)
        x, w = rng.standard_normal((16, 8)), rng.standard_normal((8, 8))
        for n in range(1, 10):
            stats = stats_from_tensors(x, w, name="g" * n)
            stats_path, plan_path = str(tmp_path / "s.cqb"), str(tmp_path / "p.cqb")
            formats.write_stats(stats_path, [stats])
            formats.write_plan(plan_path, [build_plan(stats, 2, 4, 8)])
            for path in (stats_path, plan_path):
                tensors = formats._map(path)[1]
                assert len(tensors) == 2
                assert all(t.flags.aligned for t in tensors.values())


def stdlib_read(path) -> dict:
    """Each tensor of a safetensors file as its shape and its values in
    order, read by the format's spec with the standard library alone."""
    with open(path, "rb") as f:
        raw = f.read()
    (n,) = struct.unpack_from("<Q", raw)
    header = json.loads(raw[8:8 + n])
    header.pop("__metadata__", None)
    out = {}
    for name, entry in header.items():
        begin, end = entry["data_offsets"]
        code = {"F32": "f", "F64": "d"}[entry["dtype"]]
        count = (end - begin) // struct.calcsize(code)
        out[name] = entry["shape"], struct.unpack_from(f"<{count}{code}", raw, 8 + n + begin)
    return out


class TestSafetensors:
    """Interoperability, checked against the spec
    (https://github.com/huggingface/safetensors) with no package of it."""

    def test_reads_a_file_assembled_from_the_spec(self, tmp_path):
        # two tensors listed in the header in the reverse of their data order
        header = (b'{"__metadata__":{"format":"pt"},'
                  b'"b":{"dtype":"F64","shape":[2],"data_offsets":[24,40]},'
                  b'"a":{"dtype":"F32","shape":[2,3],"data_offsets":[0,24]}}')
        pad = -len(header) % 8
        assert pad > 0
        header += b" " * pad
        a = struct.pack("<6f", 1.0, 2.0, 3.0, 4.0, 5.0, -0.5)
        b = struct.pack("<2d", 1e300, -2.25)
        path = tmp_path / "two.safetensors"
        path.write_bytes(struct.pack("<Q", len(header)) + header + a + b)
        metadata, tensors = formats._map(str(path))
        assert metadata == {"format": "pt"}
        assert tensors["a"].dtype == np.float32 and tensors["b"].dtype == np.float64
        assert np.array_equal(tensors["a"], [[1, 2, 3], [4, 5, -0.5]])
        assert np.array_equal(tensors["b"], [1e300, -2.25])
        with pytest.raises(HeaderMismatchError, match="holds 2 tensors, expected 1"):
            formats.map_tensor(str(path))
        one = b'{"a":{"dtype":"F32","shape":[2,3],"data_offsets":[0,24]}}'
        path = tmp_path / "one.safetensors"
        path.write_bytes(struct.pack("<Q", len(one)) + one + a)
        assert np.array_equal(formats.map_tensor(str(path)), tensors["a"])

    def test_a_stdlib_reader_reads_what_the_writers_write(self, tmp_path):
        rng = np.random.default_rng(7)
        x, w = rng.standard_normal((16, 8)), rng.standard_normal((8, 5))
        stats = stats_from_tensors(x, w, name="g")
        plan = build_plan(stats, 2, 4, 8)
        expected = {}
        for dtype in ("f32", "f64"):
            path = str(tmp_path / f"x.{dtype}.cqt")
            formats.write_tensor(path, "x", x, dtype=dtype)
            expected[path] = {"x": x.astype({"f32": np.float32, "f64": np.float64}[dtype])}
        path = str(tmp_path / "s.cqb")
        formats.write_stats(path, [stats])
        expected[path] = {"0.sigma_x": stats.sigma_x, "0.sigma_w": stats.sigma_w}
        path = str(tmp_path / "p.cqb")
        formats.write_plan(path, [plan])
        expected[path] = {"0.vectors": plan.partition.vectors,
                          "0.eigenvalues": plan.partition.eigenvalues}
        for path, arrays in expected.items():
            read = stdlib_read(path)
            assert sorted(read) == sorted(arrays)
            for name, (shape, values) in read.items():
                assert shape == list(arrays[name].shape)
                assert np.array_equal(np.array(values).reshape(shape), arrays[name])

    @pytest.mark.parametrize("role", ["x", "plan"])
    def test_old_files_exit_2_naming_them(self, tmp_path, capsys, role):
        x, w, x_path, w_path = plan_inputs(tmp_path)
        plan_path = str(tmp_path / "p.cqb")
        formats.write_plan(plan_path, [build_plan(stats_from_tensors(x, w), 2, 4, 8)])
        old = str(tmp_path / f"old.{role}")
        if role == "x":
            header = {"name": "x", "dtype": "f64", "shape": [16, 8], "layout": "row-major"}
            Path(old).write_bytes(old_frame(b"CQT1", header, x.tobytes()))
            x_path = old
        else:
            header, payload = split(plan_path)
            header = {"kind": "plan", "meta": json.loads(header["__metadata__"]["meta"]),
                      "tensors": [{"name": "0.vectors", "dtype": "f64", "shape": [8, 8]},
                                  {"name": "0.eigenvalues", "dtype": "f64", "shape": [8]}]}
            Path(old).write_bytes(old_frame(b"CQB1", header, payload))
            plan_path = old
        exits_2_naming(capsys, old, "simulate", "--plan", plan_path, "--x", x_path,
                       "--w", w_path)


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCopyFree:
    """Writers write the arrays they are given, and readers of a file the
    package wrote allocate little beyond a finiteness mask, whatever its
    group count (d = 256: 1 MiB of stats tensors per group)."""

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
        # the Sigmas are used where they are mapped: one d x d bool mask at a time
        stats, nbytes = wide
        for groups in (1, 4):
            path = str(tmp_path / f"s{groups}.cqb")
            formats.write_stats(path, [stats] * groups)
            assert traced_peak(formats.read_stats, path) < nbytes / 8

    def test_write_plan(self, tmp_path, wide):
        plan = build_plan(wide[0], 32, 4, 8)
        nbytes = plan.partition.vectors.nbytes + plan.partition.eigenvalues.nbytes
        assert traced_peak(formats.write_plan, str(tmp_path / "p.cqb"), [plan]) \
            < nbytes / 4

    def test_read_plan(self, tmp_path, wide):
        # the bases are mapped; one d x d Gram at a time for orthonormality
        plan = build_plan(wide[0], 32, 4, 8)
        nbytes = plan.partition.vectors.nbytes + plan.partition.eigenvalues.nbytes
        for groups in (1, 4):
            path = str(tmp_path / f"p{groups}.cqb")
            formats.write_plan(path, [plan] * groups)
            assert traced_peak(formats.read_plan, path) < 1.25 * nbytes

    def test_read_tensors_are_read_only(self, tmp_path, wide):
        stats = str(tmp_path / "s.cqb")
        plan = str(tmp_path / "p.cqb")
        formats.write_stats(stats, [wide[0]])
        formats.write_plan(plan, [build_plan(wide[0], 32, 4, 8)])
        (read_stats,), (read_plan,) = formats.read_stats(stats), formats.read_plan(plan)
        for array in (read_stats.sigma_x, read_stats.sigma_w,
                      read_plan.partition.vectors, read_plan.partition.eigenvalues):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_write_f32_tensor_converts_once(self, tmp_path, wide):
        sigma = wide[0].sigma_x
        assert traced_peak(formats.write_tensor, str(tmp_path / "t.cqt"), "s",
                           sigma, "f32") < 1.25 * sigma.nbytes / 2


class TestRewrite:
    """A stats or plan file read and written back is the same file byte for
    byte: the writers write the mapped views the readers return as they are."""

    @pytest.fixture
    def stats(self):
        rng = np.random.default_rng(12)
        return [stats_from_tensors(rng.standard_normal((3 * d, d)),
                                   rng.standard_normal((d, 5)), name=f"g{i}")
                for i, d in enumerate((8, 12, 8))]

    def rewritten(self, tmp_path, write, read, items) -> tuple[bytes, bytes]:
        first, second = tmp_path / "first.cqb", tmp_path / "second.cqb"
        write(str(first), items)
        write(str(second), read(str(first)))
        return first.read_bytes(), second.read_bytes()

    def test_stats(self, tmp_path, stats):
        first, second = self.rewritten(tmp_path, formats.write_stats,
                                       formats.read_stats, stats)
        assert first == second

    def test_plan(self, tmp_path, stats):
        plans = [build_plan(st, 2 + i, 4, 8, objective=objective, seed=i,
                            rotation=rotation)
                 for i, (st, objective, rotation) in enumerate(zip(
                     stats, ("joint", "activation", "weight"),
                     ("random", "hadamard", "random")))]
        first, second = self.rewritten(tmp_path, formats.write_plan,
                                       formats.read_plan, plans)
        assert first == second


class TestStreamedBundles:
    """The stats and plan writers draw any iterable of groups once, and
    `read_plan` builds only the group it is asked for."""

    @pytest.fixture
    def stats(self):
        rng = np.random.default_rng(13)
        return [stats_from_tensors(rng.standard_normal((3 * d, d)),
                                   rng.standard_normal((d, 4)), name=f"g{i}")
                for i, d in enumerate((8, 12, 8))]

    @pytest.mark.parametrize("kind", ["stats", "plan"])
    def test_a_generator_writes_the_bytes_of_a_list(self, tmp_path, stats, kind):
        write = getattr(formats, f"write_{kind}")
        items = stats if kind == "stats" else [
            build_plan(st, 2, 4, 8, seed=i) for i, st in enumerate(stats)]
        write(str(tmp_path / "list.cqb"), items)
        write(str(tmp_path / "generator.cqb"), (item for item in items))
        assert read_raw(tmp_path / "generator.cqb") == read_raw(tmp_path / "list.cqb")

    @pytest.mark.parametrize("write", [formats.write_stats, formats.write_plan],
                             ids=["stats", "plan"])
    def test_no_groups_raises_and_writes_nothing(self, tmp_path, write):
        # the readers reject a file of no groups
        with pytest.raises(ValueError, match="must be a non-empty list, got"):
            write(str(tmp_path / "empty.cqb"), [])
        assert os.listdir(tmp_path) == []

    def test_read_plan_of_a_group_checks_only_its_basis(self, tmp_path, stats):
        path = tmp_path / "p.cqb"
        formats.write_plan(str(path), [build_plan(st, 2, 4, 8) for st in stats])
        header, payload = split(path)
        begin, end = header["1.vectors"]["data_offsets"]
        doubled = 2.0 * np.frombuffer(payload[begin:end], "<f8")
        path.write_bytes(frame(header, payload[:begin] + doubled.tobytes() + payload[end:]))
        with pytest.raises(HeaderMismatchError, match=r"plans\[1\]: basis has"):
            formats.read_plan(str(path))
        (plan,) = formats.read_plan(str(path), "g2")
        assert plan.group.name == "g2"
        assert formats.read_plan(str(path), "h") == []


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

    @pytest.mark.parametrize("mask", [0o077, 0o002], ids=["077", "002"])
    def test_file_mode_follows_the_umask_set_after_import(self, tmp_path, mask):
        path = str(tmp_path / "t.cqt")
        old = os.umask(mask)
        try:
            formats.write_tensor(path, "t", np.eye(2))
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~mask


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
    """Apply `edit` to {"meta": the file's meta document}."""
    header, payload = split(path)
    doc = {"meta": json.loads(header["__metadata__"]["meta"])}
    edit(doc, key)
    header["__metadata__"]["meta"] = json.dumps(doc["meta"])
    write_raw(path, header, payload)


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
    """A file's header and its tensors by name, read from their offsets."""
    header, payload = split(path)
    out = {}
    for name, entry in header.items():
        if name != "__metadata__":
            begin, end = entry["data_offsets"]
            out[name] = np.frombuffer(payload[begin:end], "<f8").reshape(entry["shape"])
    return header, out


def _with_tensors(edit):
    def rewrite(path):
        header, tensors = bundle_tensors(path)
        tensors = edit(dict(tensors))
        new, offset = {"__metadata__": header["__metadata__"]}, 0
        for name, v in tensors.items():
            new[name] = {"dtype": "F64", "shape": list(v.shape),
                         "data_offsets": [offset, offset + 8 * v.size]}
            offset += 8 * v.size
        write_raw(path, new, b"".join(np.ascontiguousarray(v, "<f8").tobytes()
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
        metadata = header.pop("__metadata__")
        # in data order: each group's basis, then its eigenvalues
        assert sorted(((e["data_offsets"], name, e["shape"]) for name, e in header.items()),
                      key=lambda t: t[0]) == [
            ([0, 512], "0.vectors", [8, 8]), ([512, 576], "0.eigenvalues", [8]),
            ([576, 1088], "1.vectors", [8, 8]), ([1088, 1152], "1.eigenvalues", [8])]
        # each entry is its plan's own JSON object, the partition nested
        meta = json.loads(metadata.pop("meta"))
        assert metadata == {"kind": "plan"}
        assert meta["plans"] == [p.to_json() for p in plans]
        assert [(p["partition"]["rank"], p["partition"]["rotation"])
                for p in meta["plans"]] == [(2, "random"), (3, "hadamard")]
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

