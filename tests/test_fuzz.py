"""Fuzzed inputs: a valid stats bundle, plan bundle, config, tensor file,
synthetic spec or report with one JSON value replaced by a value of another
type, or with bytes flipped in its frame or header, either loads
or raises FormatError, and the CLI exits 0 or 2 on it, never with a
traceback."""

import argparse
import copy
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subquant import cli, formats
from subquant.errors import FormatError
from subquant.synth import weight_anisotropic_spec

FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
           | st.floats() | st.text(max_size=6))
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=5)


def nodes(doc, path=()):
    """The path of every value in a JSON document, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from nodes(value, path + (key,))


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replace_value(doc, data, focus=()):
    """`doc` with one value replaced by a value of another Python type; the
    value is under `focus` three times in four."""
    paths = list(nodes(doc))
    if data.draw(st.integers(0, 3)):
        paths = [p for p in paths if p[:len(focus)] == focus]
    path = data.draw(st.sampled_from(paths))
    old = lookup(doc, path)
    new = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)))
    if not path:
        return new
    doc = copy.deepcopy(doc)
    lookup(doc, path[:-1])[path[-1]] = new
    return doc


def flip_bytes(raw: bytes, end: int, data) -> bytes:
    """`raw` with one to three bytes of raw[:end] XOR-ed with nonzero masks."""
    out = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 3))):
        out[data.draw(st.integers(0, end - 1))] ^= data.draw(st.integers(1, 255))
    return bytes(out)


def split_bundle(raw: bytes):
    (hlen,) = struct.unpack("<I", raw[4:8])
    return json.loads(raw[8:8 + hlen]), raw[8 + hlen:], 8 + hlen


def frame(header, payload: bytes, magic: bytes = b"CQB1") -> bytes:
    h = json.dumps(header).encode()
    return magic + struct.pack("<I", len(h)) + h + payload


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A two-group config, its shards, and the stats and plan it gives."""
    tmp = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    d = 8
    groups = []
    for name, kind in (("g0", "attn-input"), ("g1", "mlp-input")):
        x, w = str(tmp / f"{name}.x.cqt"), str(tmp / f"{name}.w.cqt")
        formats.write_tensor(x, "x", rng.standard_normal((24, d)), dtype="f32")
        formats.write_tensor(w, "w", rng.standard_normal((d, 6)))
        groups.append({"name": name, "kind": kind, "dim": d,
                       "activations": [x], "weights": [w]})
    config = {"groups": groups, "rank_ratio": 0.25, "bits_low": 4,
              "bits_high": 8, "objective": "joint", "seed": 7,
              "rotation": "hadamard"}
    paths = {"config": str(tmp / "config.json"), "stats": str(tmp / "stats.cqb"),
             "plan": str(tmp / "plan.cqb"), "x": groups[0]["activations"][0],
             "w": groups[0]["weights"][0], "fuzzed": str(tmp / "fuzzed"),
             "out": str(tmp / "out")}
    with open(paths["config"], "w", encoding="utf-8") as f:
        json.dump(config, f)
    spec = weight_anisotropic_spec(d, 32, 6, seed=3).to_json()
    assert cli.main(["calibrate", "--config", paths["config"],
                     "--out", paths["stats"]]) == 0
    assert cli.main(["solve", "--stats", paths["stats"], "--config", paths["config"],
                     "--out", paths["plan"]]) == 0
    paths["report"] = str(tmp / "report.jsonl")
    assert cli.main(["simulate", "--plan", paths["plan"], "--group", "g0",
                     "--x", paths["x"], "--w", paths["w"],
                     "--out", paths["report"]]) == 0
    return paths | {"config_obj": config, "spec_obj": spec}


def mutate_frame(path: str, data, magic: bytes = b"CQB1", focus=("meta",)) -> bytes:
    """A bundle or tensor file with one header value replaced, or with bytes
    of its frame or header flipped; the payload is left as it is."""
    with open(path, "rb") as f:
        raw = f.read()
    header, payload, end = split_bundle(raw)
    if data.draw(st.booleans()):
        return frame(replace_value(header, data, focus=focus), payload, magic)
    return flip_bytes(raw, end, data)


def mutate_json(doc, data) -> bytes:
    if data.draw(st.booleans()):
        return json.dumps(replace_value(doc, data)).encode()
    raw = json.dumps(doc).encode()
    return flip_bytes(raw, len(raw), data)


def loads(read, path: str) -> bool:
    """Whether `read` loads the file; any failure must be a FormatError."""
    try:
        read(path)
    except FormatError:
        return False
    return True


def exits_0_or_2(*argv) -> None:
    assert cli.main(list(argv)) in (0, 2)


@FUZZ
@given(data=st.data())
def test_stats_bundle(valid, data):
    with open(valid["fuzzed"], "wb") as f:
        f.write(mutate_frame(valid["stats"], data))
    # the CLI reads the file first, and exits 2 on a FormatError
    if loads(formats.read_stats, valid["fuzzed"]):
        exits_0_or_2("solve", "--stats", valid["fuzzed"], "--out", valid["out"])


@FUZZ
@given(data=st.data())
def test_plan_bundle(valid, data):
    with open(valid["fuzzed"], "wb") as f:
        f.write(mutate_frame(valid["plan"], data))
    if loads(formats.read_plan, valid["fuzzed"]):
        exits_0_or_2("simulate", "--plan", valid["fuzzed"], "--group", "g0",
                     "--x", valid["x"], "--w", valid["w"], "--out", valid["out"])


@FUZZ
@given(data=st.data())
def test_config(valid, data):
    with open(valid["fuzzed"], "wb") as f:
        f.write(mutate_json(valid["config_obj"], data))
    flags = argparse.Namespace(**dict.fromkeys(cli._FLAGS))
    if loads(lambda path: cli.load_config(path, flags), valid["fuzzed"]):
        exits_0_or_2("calibrate", "--config", valid["fuzzed"], "--out", valid["out"])
        exits_0_or_2("solve", "--stats", valid["stats"], "--config", valid["fuzzed"],
                     "--out", valid["out"])


@FUZZ
@given(data=st.data())
def test_tensor_file(valid, data):
    role = data.draw(st.sampled_from(["x", "w"]))
    with open(valid["fuzzed"], "wb") as f:
        f.write(mutate_frame(valid[role], data, magic=b"CQT1", focus=()))
    if loads(formats.read_tensor, valid["fuzzed"]):
        tensors = {"x": valid["x"], "w": valid["w"], role: valid["fuzzed"]}
        exits_0_or_2("simulate", "--plan", valid["plan"], "--group", "g0",
                     "--x", tensors["x"], "--w", tensors["w"], "--out", valid["out"])


@FUZZ
@given(data=st.data())
def test_synthetic_spec(valid, data):
    with open(valid["fuzzed"], "wb") as f:
        f.write(mutate_json(valid["spec_obj"], data))
    exits_0_or_2("analyze", "--synthetic", valid["fuzzed"], "--rank", "2",
                 "--out", valid["out"])


@FUZZ
@given(data=st.data())
def test_report_file(valid, data):
    with open(valid["report"], encoding="utf-8") as f:
        row = json.loads(f.read())
    with open(valid["fuzzed"], "wb") as f:
        f.write(mutate_json(row, data))
    if loads(formats.read_report, valid["fuzzed"]):
        exits_0_or_2("compare", valid["report"], valid["fuzzed"], "--out", valid["out"])
