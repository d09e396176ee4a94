import argparse
import dataclasses
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from reference import assert_reports_agree, assert_within_f32_gram_bound
from subquant import cli, engine, errors, formats, linalg, quantizer, solver
from subquant.calib import CalibStats, ProjectionGroup
from subquant.cli import main
from subquant.engine import (
    analyze_layer, build_plan, execute_plan, stats_from_tensors, summarize)
from subquant.linalg import HIGH_ROTATION, LOW_ROTATION
from subquant.synth import aligned_spec, generate_instance, weight_anisotropic_spec


@pytest.fixture
def workspace(tmp_path):
    """Tensor files plus a calibrate config for one attention-input group."""
    rng = np.random.default_rng(0)
    d = 8
    x1 = rng.standard_normal((16, d))
    x2 = rng.standard_normal((12, d))
    w = rng.standard_normal((d, d))
    paths = {}
    for name, arr in (("x1", x1), ("x2", x2), ("w", w)):
        p = str(tmp_path / f"{name}.cqt")
        formats.write_tensor(p, name, arr)
        paths[name] = p
    cfg = {"groups": [{"name": "g0", "kind": "attn-input", "dim": d,
                       "activations": [paths["x1"], paths["x2"]],
                       "weights": [paths["w"]]}],
           "seed": 7}
    cfg_path = str(tmp_path / "cfg.json")
    Path(cfg_path).write_text(json.dumps(cfg))
    return {"tmp": tmp_path, "cfg": cfg_path, "cfg_obj": cfg,
            "x1_arr": x1, "x2_arr": x2, "w_arr": w, **paths}


def run(*argv):
    return main(list(argv))


def config_file(tmp_path, **fields) -> str:
    """A config file that sets the plan fields `fields`, and no groups."""
    path = tmp_path / "fields.json"
    path.write_text(json.dumps(fields))
    return str(path)


class TestCalibrate:
    def test_equals_concatenated_batch(self, workspace):
        out = str(workspace["tmp"] / "stats.cqb")
        assert run("calibrate", "--config", workspace["cfg"], "--out", out) == 0
        stats = formats.read_stats(out)[0]
        concat = np.vstack([workspace["x1_arr"], workspace["x2_arr"]])
        assert np.allclose(stats.sigma_x, concat.T @ concat, rtol=1e-12)
        assert stats.tokens_seen == 28

    def test_missing_weight_file_exits_2(self, workspace, capsys):
        cfg = dict(workspace["cfg_obj"])
        cfg["groups"] = [dict(cfg["groups"][0],
                              weights=[str(workspace["tmp"] / "missing.cqt")])]
        cfg_path = str(workspace["tmp"] / "bad.json")
        Path(cfg_path).write_text(json.dumps(cfg))
        out = str(workspace["tmp"] / "stats.cqb")
        assert run("calibrate", "--config", cfg_path, "--out", out) == 2
        assert "g0" in capsys.readouterr().err

    def test_byte_identical_reruns(self, workspace):
        a = str(workspace["tmp"] / "a.cqb")
        b = str(workspace["tmp"] / "b.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", a)
        run("calibrate", "--config", workspace["cfg"], "--out", b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_unknown_kind_exits_2(self, workspace):
        cfg = {"groups": [{"name": "g", "kind": "bogus", "dim": 4}]}
        cfg_path = str(workspace["tmp"] / "bad.json")
        Path(cfg_path).write_text(json.dumps(cfg))
        assert run("calibrate", "--config", cfg_path,
                   "--out", str(workspace["tmp"] / "s.cqb")) == 2

    def calibrate_with_weights(self, workspace, weights):
        """Calibrate the workspace config with its group's weight files
        replaced: the exit code, the config's path and whether the stats file
        was written."""
        cfg = dict(workspace["cfg_obj"])
        cfg["groups"] = [dict(cfg["groups"][0], weights=weights)]
        cfg_path = str(workspace["tmp"] / "weights.json")
        Path(cfg_path).write_text(json.dumps(cfg))
        out = workspace["tmp"] / "stats.cqb"
        code = run("calibrate", "--config", cfg_path, "--out", str(out))
        return code, cfg_path, out.exists()

    @pytest.mark.parametrize("second", [False, True], ids=["only-file", "second-file"])
    def test_weight_file_of_wrong_dim_is_named(self, workspace, capsys, second):
        wide = str(workspace["tmp"] / "w16.cqt")
        formats.write_tensor(wide, "w16", np.ones((16, 8)))
        weights = [workspace["w"], wide] if second else [wide]
        code, cfg_path, written = self.calibrate_with_weights(workspace, weights)
        err = capsys.readouterr().err
        assert code == 2 and not written
        assert (f"{cfg_path}: groups[0] (group 'g0'): weight file {wide}: "
                "w must be 2-d with 8 rows, got shape (16, 8)" in err)

    def test_non_finite_weight_file_is_named(self, workspace, capsys):
        bad = str(workspace["tmp"] / "wnan.cqt")
        formats.write_tensor(bad, "wnan", np.full((8, 8), np.nan))
        code, cfg_path, written = self.calibrate_with_weights(workspace, [bad])
        err = capsys.readouterr().err
        assert code == 2 and not written
        assert (f"{cfg_path}: groups[0] (group 'g0'): weight file {bad}: "
                "w contains non-finite entries\n" in err)

    def test_weight_energy_overflow_names_the_files(self, workspace, capsys):
        # each member's one non-zero row has a finite square sum and energy
        # (8 * 1.2e307), their sum over the two members is not: the error
        # names the file whose fold overflows it, the second; an overflow is
        # a numerical failure
        w = np.zeros((8, 8))
        w[0] = 3.5e153
        huge = [str(workspace["tmp"] / f"whuge{i}.cqt") for i in range(2)]
        for path in huge:
            formats.write_tensor(path, "whuge", w)
        code, cfg_path, written = self.calibrate_with_weights(workspace, huge)
        err = capsys.readouterr().err
        assert code == 1 and not written
        assert (f"{cfg_path}: groups[0] (group 'g0'): weight file {huge[1]}: "
                "the sum of w's squares overflows float64" in err)
        assert huge[0] not in err

    @pytest.mark.parametrize("shape", [(8 * 8,), (16, 8), (8, 8, 1)],
                             ids=["1-d", "wrong-dim", "3-d"])
    @pytest.mark.parametrize("command", ["calibrate", "analyze"])
    def test_weight_shape_is_named_as_the_file_holds_it(self, workspace, capsys,
                                                       command, shape):
        bad = str(workspace["tmp"] / "wbad.cqt")
        formats.write_tensor(bad, "wbad", np.ones(shape), dtype="f32")
        if command == "calibrate":
            code, cfg_path, written = self.calibrate_with_weights(workspace, [bad])
            where = f"{cfg_path}: groups[0] (group 'g0'): weight file {bad}: "
        else:
            out = workspace["tmp"] / "r.jsonl"
            code = run("analyze", "--x", workspace["x1"], "--w", bad, "--config",
                       config_file(workspace["tmp"], rank_ratio=0.25), "--out", str(out))
            written, where = out.exists(), ""
        assert code == 2 and not written
        assert (f"{where}w must be 2-d with 8 rows, got shape {shape}"
                in capsys.readouterr().err)

    def test_never_reads_a_whole_tensor(self, workspace, monkeypatch):
        def refuse(path):
            raise AssertionError(f"read_tensor({path})")

        monkeypatch.setattr(formats, "read_tensor", refuse)
        out = workspace["tmp"] / "stats.cqb"
        assert run("calibrate", "--config", workspace["cfg"], "--out", str(out)) == 0

    def test_f32_weight_is_within_the_gram_bound_of_its_f64_twin(self, workspace):
        w = workspace["w_arr"].astype(np.float32)
        stats = {}
        for dtype in ("f32", "f64"):
            path = str(workspace["tmp"] / f"w_{dtype}.cqt")
            formats.write_tensor(path, "w", w, dtype=dtype)
            code, _, written = self.calibrate_with_weights(workspace, [path, path])
            assert code == 0 and written
            stats[dtype] = formats.read_stats(str(workspace["tmp"] / "stats.cqb"))[0]
        f32, f64 = stats["f32"], stats["f64"]
        assert np.array_equal(f32.sigma_x, f64.sigma_x)
        assert f32.energy_x == f64.energy_x
        # the file twice: two float32 Grams of W^T's 8 rows, summed in float64
        assert_within_f32_gram_bound(f32.sigma_w, f32.energy_w, np.vstack([w.T, w.T]), 8)
        whole = np.vstack([w.T, w.T]).astype(np.float64)
        assert np.allclose(f64.sigma_w, whole.T @ whole, rtol=1e-12, atol=0)

    def test_dim_too_large_exits_2_before_allocating(self, workspace, capsys):
        cfg = dict(workspace["cfg_obj"])
        cfg["groups"] = [dict(cfg["groups"][0], dim=1000000)]
        cfg_path = workspace["tmp"] / "huge_dim.json"
        cfg_path.write_text(json.dumps(cfg))
        out = workspace["tmp"] / "stats.cqb"
        tracemalloc.start()
        try:
            code = run("calibrate", "--config", str(cfg_path), "--out", str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert f"{cfg_path}: groups[0]: dim must be small enough" in err
        assert peak < 1 << 20

    # a file whose squares overflow float64 (1e200), or whose square sums of
    # rows are finite but whose energy is not (one row of 8 x 1.2e154): its
    # entries are finite, so this is a numerical failure
    OVERFLOWS = {
        "weight": ("weight", np.full((8, 8), 1e200),
                   "the sum of w's squares overflows float64"),
        "activation": ("activation", np.full((16, 8), 1e200),
                       "the sum of x's squares overflows float64"),
        "activation-energy": ("activation", np.full((1, 8), 1.2e154),
                              "the sum of x's squares overflows float64"),
    }

    @pytest.mark.parametrize("case", sorted(OVERFLOWS))
    def test_overflowing_file_exits_1_naming_it(self, workspace, capsys, case):
        kind, array, message = self.OVERFLOWS[case]
        path = str(workspace["tmp"] / "huge.cqt")
        formats.write_tensor(path, "huge", array)
        cfg = dict(workspace["cfg_obj"])
        cfg["groups"] = [dict(cfg["groups"][0], **{f"{kind}s": [path]})]
        cfg_path = str(workspace["tmp"] / "huge.json")
        Path(cfg_path).write_text(json.dumps(cfg))
        out = workspace["tmp"] / "stats.cqb"
        assert run("calibrate", "--config", cfg_path, "--out", str(out)) == 1
        assert (f"{cfg_path}: groups[0] (group 'g0'): {kind} file {path}: {message}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        for name in ("map_tensor", "read_tensor"):
            read = getattr(formats, name)
            monkeypatch.setattr(formats, name,
                                lambda path, read=read: calls.append(path) or read(path))
        return calls

    # a second group after the workspace's valid one, and what the error names
    SECOND_GROUPS = {
        "no-activations": ({"name": "g1", "activations": []},
                           "activations must be non-empty for group 'g1'"),
        "activations-left-out": ({"name": "g1", "activations": None},
                                 "activations must be non-empty for group 'g1'"),
        "no-weights": ({"name": "g1", "weights": []},
                       "weights must be non-empty for group 'g1'"),
        "weights-left-out": ({"name": "g1", "weights": None},
                             "weights must be non-empty for group 'g1'"),
        "same-name": ({}, "two groups are named 'g0'"),
    }

    @pytest.mark.parametrize("case", sorted(SECOND_GROUPS))
    def test_bad_second_group_exits_2_before_any_read(self, workspace, capsys,
                                                      reads, case):
        edit, message = self.SECOND_GROUPS[case]
        second = {k: v for k, v in (workspace["cfg_obj"]["groups"][0] | edit).items()
                  if v is not None}
        cfg = workspace["cfg_obj"] | {"groups": [workspace["cfg_obj"]["groups"][0],
                                                 second]}
        cfg_path = workspace["tmp"] / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = workspace["tmp"] / "s.cqb"
        assert run("calibrate", "--config", str(cfg_path), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert reads == [] and not out.exists()


def calibrate_config(workspace, shard, name="shard.json") -> str:
    """A config whose one group reads `shard`."""
    cfg = dict(workspace["cfg_obj"])
    cfg["groups"] = [dict(cfg["groups"][0], activations=[shard])]
    cfg_path = workspace["tmp"] / name
    cfg_path.write_text(json.dumps(cfg))
    return str(cfg_path)


def calibrate_shard(workspace, shard, name="shard.json"):
    """Run calibrate on a config whose one group reads `shard`."""
    out = str(workspace["tmp"] / "shard_stats.cqb")
    return run("calibrate", "--config", calibrate_config(workspace, shard, name),
               "--out", out), out


class TestCalibrateStreaming:
    def test_multi_block_shard_matches_whole_batch(self, workspace, monkeypatch):
        x = np.random.default_rng(4).standard_normal((23, 8)).astype(np.float32)
        shard = str(workspace["tmp"] / "x32.cqt")
        formats.write_tensor(shard, "x32", x, dtype="f32")
        # 5-row blocks, raised to d = 8 rows as each adds a d x d Gram
        monkeypatch.setattr(linalg, "MIN_BLOCK_ROWS", 1)
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 5 * 8 * 8)
        code, out = calibrate_shard(workspace, shard)
        assert code == 0
        stats = formats.read_stats(out)[0]
        # float32 Grams of 8 rows, summed in float64, against the whole batch's
        assert_within_f32_gram_bound(stats.sigma_x, stats.energy_x, x, 8)
        assert stats.tokens_seen == 23

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_shard_exits_2_naming_it(self, workspace, monkeypatch,
                                                 capsys, value):
        x = np.ones((23, 8))
        x[17, 3] = value
        shard = str(workspace["tmp"] / "bad.cqt")
        formats.write_tensor(shard, "bad", x, dtype="f32")
        monkeypatch.setattr(linalg, "MIN_BLOCK_ROWS", 1)
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 5 * 8 * 8)
        code, out = calibrate_shard(workspace, shard)
        assert code == 2
        assert shard in capsys.readouterr().err
        assert not (workspace["tmp"] / "shard_stats.cqb").exists()

    def test_float32_square_overflow_exits_1_naming_the_shard(self, workspace, capsys):
        x = np.ones((23, 8), dtype=np.float32)
        x[17, 3] = 2e19  # finite, but its square overflows float32
        shard = str(workspace["tmp"] / "big32.cqt")
        formats.write_tensor(shard, "big", x, dtype="f32")
        code, out = calibrate_shard(workspace, shard)
        assert code == 1 and not Path(out).exists()
        cfg = workspace["tmp"] / "shard.json"
        assert capsys.readouterr().err == (
            f"error: {cfg}: groups[0] (group 'g0'): activation file {shard}: "
            f"the sum of x's squares overflows float32\n")
        # its float64 twin calibrates, the square held in float64
        twin = str(workspace["tmp"] / "big64.cqt")
        formats.write_tensor(twin, "big", x, dtype="f64")
        code, out = calibrate_shard(workspace, twin)
        assert code == 0
        assert formats.read_stats(out)[0].sigma_x[3, 3] == pytest.approx(
            float(x[17, 3]) ** 2)

    def test_truncated_shard_exits_2_before_folding(self, workspace, monkeypatch):
        shard = workspace["tmp"] / "cut.cqt"
        formats.write_tensor(str(shard), "cut", np.ones((23, 8)), dtype="f32")
        shard.write_bytes(shard.read_bytes()[:-4])
        folded = []
        monkeypatch.setattr(cli, "calibrate",
                            lambda group, batches, weights: folded.extend(batches))
        code, _ = calibrate_shard(workspace, str(shard))
        assert code == 2
        assert folded == []

    def test_directory_shard_exits_2_naming_it(self, workspace, capsys):
        shard = workspace["tmp"] / "shard_dir"
        shard.mkdir()
        code, out = calibrate_shard(workspace, str(shard))
        assert code == 2
        cfg = workspace["tmp"] / "shard.json"
        assert capsys.readouterr().err == (
            f"error: {cfg}: groups[0] (group 'g0'): activation file {shard}: "
            f"[Errno 21] Is a directory: '{shard}'\n")
        assert not Path(out).exists()

    def test_unencodable_shard_path_exits_2_naming_it(self, workspace):
        # "\ud800" in the config's JSON is a lone surrogate, which open()
        # cannot encode: a UnicodeEncodeError, which one message cannot build.
        # A fresh interpreter, whose stderr writes it backslash-escaped
        cfg = calibrate_config(workspace, "\ud800.cqt")
        out = workspace["tmp"] / "shard_stats.cqb"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        done = subprocess.run([sys.executable, "-m", "subquant.cli", "calibrate",
                               "--config", cfg, "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 2 and not out.exists()
        assert done.stderr.startswith(
            f"error: {cfg}: groups[0] (group 'g0'): activation file \\ud800.cqt: "
            "'utf-8' codec can't encode character")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr

    def test_never_holds_a_whole_shard_as_f64(self, workspace):
        n, d = 65536, 8
        x = np.random.default_rng(5).standard_normal((n, d))
        shard = str(workspace["tmp"] / "big.cqt")
        formats.write_tensor(shard, "big", x, dtype="f32")
        del x
        tracemalloc.start()
        try:
            code, _ = calibrate_shard(workspace, shard)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < n * d * 8 / 2


class TestMalformedInputs:
    def test_fractional_shape_exits_2(self, workspace, capsys):
        bad = workspace["tmp"] / "frac.cqt"
        bad.write_bytes(framed(json.dumps(
            {"x": {"dtype": "F64", "shape": [1.5, 8], "data_offsets": [0, 96]}})) + bytes(96))
        stats = str(workspace["tmp"] / "stats.cqb")
        plan = str(workspace["tmp"] / "plan.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        run("solve", "--stats", stats, "--out", plan)
        assert run("simulate", "--plan", plan, "--x", str(bad), "--w", workspace["w"],
                   "--out", str(workspace["tmp"] / "r.jsonl")) == 2
        assert "shape" in capsys.readouterr().err

    def test_quantizer_range_overflow_exits_1(self, workspace, monkeypatch, capsys):
        d = 8
        stats = str(workspace["tmp"] / "stats.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        plan = build_plan(formats.read_stats(stats)[0], 1, 4, 8)
        # the identity basis keeps the huge entries apart in one low-block row:
        # p_h = e8 and no internal rotation, when written and when read back
        monkeypatch.setattr(solver, "_internal_rotation",
                            lambda dim, seed, role, rotation: np.eye(dim))
        ident = dataclasses.replace(plan.partition,
                                    vectors=np.eye(d)[:, [d - 1, *range(d - 1)]])
        assert np.array_equal(ident.u, np.eye(d))
        plan_path = str(workspace["tmp"] / "ident.cqb")
        formats.write_plan(plan_path, [dataclasses.replace(plan, partition=ident)])
        x = np.ones((4, d))
        x[0, :2] = [1e308, -1e308]
        x_path = str(workspace["tmp"] / "huge.cqt")
        formats.write_tensor(x_path, "huge", x)
        assert run("simulate", "--plan", plan_path, "--x", x_path,
                   "--w", workspace["w"],
                   "--out", str(workspace["tmp"] / "r.jsonl")) == 1
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("n,m", [(16, 8), (64, 64)], ids=["rows", "gram"])
    def test_measurement_overflow_exits_1(self, workspace, capsys, n, m):
        stats = str(workspace["tmp"] / "stats.cqb")
        plan = str(workspace["tmp"] / "plan.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        run("solve", "--stats", stats, "--out", plan)
        rng = np.random.default_rng(1)
        x, w = str(workspace["tmp"] / "huge.cqt"), str(workspace["tmp"] / "wide.cqt")
        formats.write_tensor(x, "huge", rng.standard_normal((n, 8)) * 1e200)
        formats.write_tensor(w, "wide", rng.standard_normal((8, m)))
        assert engine.use_gram_form(n, 8, m) == (m == 64)
        out = workspace["tmp"] / "r.jsonl"
        assert run("simulate", "--plan", plan, "--x", x, "--w", w,
                   "--out", str(out)) == 1
        assert "overflows float64" in capsys.readouterr().err
        assert not out.exists()


def measured(workspace, command, x, w):
    """Run `command` (simulate, with a plan of the workspace, or analyze) on
    the tensor files `x` and `w`: its exit code and its report's path."""
    tmp = workspace["tmp"]
    args = ["--config", config_file(tmp, rank_ratio=0.25)]
    if command == "simulate":
        stats, plan = str(tmp / "stats.cqb"), str(tmp / "plan.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        run("solve", "--stats", stats, "--out", plan)
        args = ["--plan", plan]
    out = tmp / "r.jsonl"
    code = run(command, *args, "--x", x, "--w", w, "--out", str(out))
    return code, out


class TestMeasurementNamesItsFiles:
    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize("side,value", [("x", np.nan), ("w", np.inf)],
                             ids=["nan-x", "inf-w"])
    def test_non_finite_entry_exits_2_naming_both_files(self, workspace, capsys,
                                                        command, side, value):
        paths = {"x": workspace["x1"], "w": workspace["w"]}
        bad = {"x": workspace["x1_arr"], "w": workspace["w_arr"]}[side].copy()
        bad[1, 2] = value
        paths[side] = str(workspace["tmp"] / f"bad_{side}.cqt")
        formats.write_tensor(paths[side], side, bad)
        code, out = measured(workspace, command, paths["x"], paths["w"])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: --x {paths['x']} --w {paths['w']}: "
            f"{side} contains non-finite entries\n")

    @pytest.mark.parametrize("side", ["x", "w"])
    def test_finite_input_whose_rotation_overflows_exits_1_naming_both_files(
            self, workspace, capsys, side):
        paths = {"x": workspace["x1"], "w": workspace["w"]}
        huge = {"x": workspace["x1_arr"], "w": workspace["w_arr"].T}[side].copy()
        huge[3] = 1.7e308 * np.where(np.arange(8) % 2, 1.0, -1.0)  # X's row, W's column
        paths[side] = str(workspace["tmp"] / f"huge_{side}.cqt")
        formats.write_tensor(paths[side], side, huge if side == "x" else huge.T)
        code, out = measured(workspace, "simulate", paths["x"], paths["w"])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: --x {paths['x']} --w {paths['w']}: "
            f"the sum of rotated {side}'s squares overflows float64\n")

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_overflowing_measurement_still_exits_1(self, workspace, capsys, command):
        x = str(workspace["tmp"] / "huge.cqt")
        formats.write_tensor(x, "huge", np.full((16, 8), 1e200))
        code, out = measured(workspace, command, x, workspace["w"])
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: --x {x} --w {workspace['w']}: ")
        assert "overflows float64" in err


# each class the CLI handles, a builtin subclass of each builtin base, and
# the exit code it sets
EXIT_CODES = {errors.FormatError: 2, ValueError: 2, UnicodeError: 2, OSError: 2,
              FileNotFoundError: 2, ArithmeticError: 1, OverflowError: 1}


def boom(error):
    def raises(tmp_path, monkeypatch):
        raise error("boom")
    return raises


def bad_header(header: str):
    def reads(tmp_path, monkeypatch):
        path = tmp_path / "bad.cqt"
        path.write_bytes(framed(header) + bytes(32))
        formats.read_tensor(str(path))
    return reads


def truncated(tmp_path, monkeypatch):
    path = str(tmp_path / "t.cqt")
    formats.write_tensor(path, "m", np.eye(3))
    Path(path).write_bytes(Path(path).read_bytes()[:-8])
    formats.read_tensor(path)


def no_convergence(tmp_path, monkeypatch):
    def fails(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    linalg.sym_eig(np.eye(2))


# each class the CLI handles, raised as itself, and each kind of failure the
# package checks for, by name, raised at its own site: the class it is
# raised as, a pattern its message matches, and a call that raises it
RAISED = {
    **{c.__name__: (c, "^boom$", boom(c)) for c in EXIT_CODES},
    "DimensionMismatchError": (ValueError, "^x must be 2-d",
                               lambda *_: quantizer.quantize(np.zeros(3), 4, True)),
    "NonSquareError": (ValueError, "^expected square matrix",
                       lambda *_: linalg.sym_eig(np.zeros((2, 3)))),
    "NotSymmetricError": (ValueError, "^asymmetry exceeds",
                          lambda *_: linalg.sym_eig(np.triu(np.ones((2, 2))))),
    "NoConvergenceError": (ArithmeticError, "^eigh did not converge", no_convergence),
    "ScaleRangeError": (ArithmeticError, "have a range that overflows float64",
                        lambda *_: quantizer.quantize(
                            np.array([[-1.7e308, 1.7e308]]), 4, False)),
    "NoSignalError": (ArithmeticError, "^combined covariance matrix is zero$",
                      lambda *_: solver.solve_partition(engine.stats_from_tensors(
                          np.zeros((4, 3)), np.zeros((3, 3))), rank=1)),
    "HeaderMismatchError": (errors.FormatError, "bad.cqt: header is not a JSON object$",
                            bad_header("[]")),
    "TruncatedPayloadError": (errors.FormatError, "t.cqt: payload is 64 bytes",
                              truncated),
    "UnsupportedDtypeError": (errors.FormatError, "bad.cqt: tensor 'm': dtype 'I64'$",
                              bad_header(json.dumps({"m": {
                                  "dtype": "I64", "shape": [2, 2],
                                  "data_offsets": [0, 32]}}))),
}


class TestExitCodeRule:
    @pytest.mark.parametrize("error", RAISED)
    def test_class_sets_the_exit_code(self, tmp_path, monkeypatch, capsys, error):
        built, message, call = RAISED[error]
        with pytest.raises(built, match=message) as raised:
            call(tmp_path, monkeypatch)
        assert type(raised.value) is built

        def fails(args):
            raise raised.value

        monkeypatch.setattr(cli, "cmd_simulate", fails)
        assert main(["simulate", "--plan", "p.cqb", "--x", "x.cqt", "--w", "w.cqt",
                     "--out", "r.jsonl"]) == EXIT_CODES[built]
        assert capsys.readouterr().err == f"error: {raised.value}\n"

    def test_every_package_error_is_walked(self):
        # the package's one exception class; every other error is a builtin
        defined = {v for v in vars(errors).values()
                   if isinstance(v, type) and issubclass(v, BaseException)}
        assert defined == {errors.FormatError}
        assert errors.FormatError.__bases__ == (ValueError,)
        assert {*defined, ValueError, OSError, ArithmeticError} <= EXIT_CODES.keys()

    @pytest.mark.parametrize("error, built", [
        (errors.FormatError("x.cqt: header is not a JSON object"), ValueError),
        (ValueError("w contains non-finite entries"), ValueError),
        (UnicodeEncodeError("utf-8", "\ud800", 0, 1, "surrogates not allowed"),
         ValueError),
        (json.JSONDecodeError("Expecting value", "nope", 0), ValueError),
        (FileNotFoundError(2, "No such file or directory", "x.cqt"), OSError),
        (ArithmeticError("eigh did not converge"), ArithmeticError),
        (ZeroDivisionError("division by zero"), ArithmeticError),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else type(v).__name__)
    def test_located_keeps_the_exit_code(self, error, built, monkeypatch, capsys):
        # the builtin base of `error`, whose exit code main returns
        named = errors.located(error, "cfg.json: groups[0]")
        assert type(named) is built
        assert str(named) == f"cfg.json: groups[0]: {error}"

        def fails(args):
            raise named from error

        monkeypatch.setattr(cli, "cmd_simulate", fails)
        assert main(["simulate", "--plan", "p.cqb", "--x", "x.cqt", "--w", "w.cqt",
                     "--out", "r.jsonl"]) == EXIT_CODES[built]
        assert capsys.readouterr().err == f"error: {named}\n"

    def test_bare_arithmetic_error_exits_1_naming_the_group(self, workspace,
                                                             monkeypatch, capsys):
        stats = str(workspace["tmp"] / "stats.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)

        def divides(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "build_plan", divides)
        out = workspace["tmp"] / "p.cqb"
        assert main(["solve", "--stats", stats, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {stats}: groups[0] (group 'g0'): division by zero\n")
        assert not out.exists()


def nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def framed(header: str) -> bytes:
    """The header length and header of a safetensors file."""
    h = header.encode()
    return struct.pack("<Q", len(h)) + h


class TestDeeplyNestedJSON:
    """JSON nested too deep to parse is a schema error naming its file:
    exit 2 with no traceback, and no output file."""

    def exits_2(self, capsys, bad, out, *argv):
        assert run(*argv, "--out", str(out)) == 2
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    def test_config(self, workspace, capsys):
        cfg = workspace["tmp"] / "deep.json"
        cfg.write_text(nested(200_000))
        self.exits_2(capsys, cfg, workspace["tmp"] / "s.cqb",
                     "calibrate", "--config", str(cfg))

    def test_synthetic_spec(self, tmp_path, capsys):
        spec = aligned_spec(8, 16, 4, seed=0).to_json() | {"d": "deep"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec).replace('"deep"', nested(200_000)))
        self.exits_2(capsys, path, tmp_path / "r.jsonl",
                     "analyze", "--synthetic", str(path))

    def test_tensor_header(self, workspace, capsys):
        shard = workspace["tmp"] / "deep.cqt"
        shard.write_bytes(framed('{"x": ' + nested(100_000) + "}"))
        self.exits_2(capsys, shard, workspace["tmp"] / "s.cqb", "calibrate",
                     "--config", calibrate_config(workspace, str(shard)))

    def test_bundle_header(self, tmp_path, capsys):
        stats = tmp_path / "deep.cqb"
        meta = json.dumps({"kind": "stats", "meta": nested(100_000)})
        stats.write_bytes(framed('{"__metadata__": ' + meta + "}"))
        self.exits_2(capsys, stats, tmp_path / "p.cqb", "solve", "--stats", str(stats))


class TestSolve:
    def solve(self, workspace, *extra):
        stats = str(workspace["tmp"] / "stats.cqb")
        plan = str(workspace["tmp"] / "plan.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        assert run("solve", "--stats", stats, "--out", plan,
                   "--config", workspace["cfg"], *extra) == 0
        return stats, plan

    def test_plan_metadata(self, workspace):
        _, plan_path = self.solve(workspace)
        plan = formats.read_plan(plan_path)[0]
        assert plan.partition.rank == 1  # default ratio 0.125 of d=8
        assert plan.objective == "joint"
        assert plan.partition.eigenvalues.shape == (8,)

    def test_activation_objective_matches_sigma_x_eigenvectors(self, workspace):
        stats_path, plan_path = self.solve(workspace, "--objective", "activation")
        stats = formats.read_stats(stats_path)[0]
        plan = formats.read_plan(plan_path)[0]
        from subquant.linalg import sym_eig
        top = sym_eig(stats.sigma_x).vectors[:, :1]
        assert np.allclose(np.abs(plan.partition.p_h.T @ top), 1.0, atol=1e-8)

    def test_deterministic_plan_bytes(self, workspace):
        _, a = self.solve(workspace)
        plan_b = str(workspace["tmp"] / "plan_b.cqb")
        run("solve", "--stats", str(workspace["tmp"] / "stats.cqb"),
            "--out", plan_b, "--config", workspace["cfg"])
        assert Path(a).read_bytes() == Path(plan_b).read_bytes()

    def test_only_simulate_derives_u_and_only_for_its_group(self, workspace,
                                                             rotation_calls):
        cfg = dict(workspace["cfg_obj"])
        cfg["groups"] = [dict(cfg["groups"][0], name=name) for name in ("g0", "g1")]
        cfg_path = workspace["tmp"] / "two.json"
        cfg_path.write_text(json.dumps(cfg))
        stats = str(workspace["tmp"] / "two.cqb")
        plan = str(workspace["tmp"] / "two_plan.cqb")
        assert run("calibrate", "--config", str(cfg_path), "--out", stats) == 0
        assert run("solve", "--stats", stats, "--config", str(cfg_path),
                   "--out", plan) == 0
        assert rotation_calls == []  # a plan file holds no u
        formats.read_plan(plan)
        assert rotation_calls == []
        assert run("simulate", "--plan", plan, "--group", "g1",
                   "--x", workspace["x1"], "--w", workspace["w"],
                   "--out", str(workspace["tmp"] / "r.jsonl")) == 0
        # rank 1 of d=8, seed 7
        assert rotation_calls == [(1, (7, HIGH_ROTATION, 0)), (7, (7, LOW_ROTATION, 0))]

    def test_eigensolver_failure_exits_1(self, workspace, monkeypatch, capsys):
        stats = str(workspace["tmp"] / "stats.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)

        def no_convergence(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        assert run("solve", "--stats", stats,
                   "--out", str(workspace["tmp"] / "p.cqb")) == 1
        # the group is named, and the error keeps its exit code
        assert (f"{stats}: groups[0] (group 'g0'): eigh did not converge"
                in capsys.readouterr().err)

    def edited_stats(self, workspace, edit):
        """The workspace's stats file with group 0's Sigma_X replaced by
        edit(Sigma_X), written as a file may hold it: unchecked."""
        stats = str(workspace["tmp"] / "stats.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        (st,) = formats.read_stats(stats)
        object.__setattr__(st, "sigma_x", edit(st.sigma_x.copy()))
        formats.write_stats(stats, [st])
        return stats

    def test_asymmetric_sigma_exits_2_naming_the_file_and_group(self, workspace, capsys):
        def skew(sigma):
            sigma[0, 1] += 1.0
            return sigma

        stats = self.edited_stats(workspace, skew)
        out = workspace["tmp"] / "p.cqb"
        assert run("solve", "--stats", stats, "--out", str(out)) == 2
        assert (f"{stats}: groups[0] (group 'g0'): asymmetry exceeds 1e-9 * max|M|"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_negative_sigma_diagonal_exits_2_naming_the_file(self, workspace, capsys):
        stats = self.edited_stats(workspace, lambda sigma: -sigma)
        out = workspace["tmp"] / "p.cqb"
        assert run("solve", "--stats", stats, "--out", str(out)) == 2
        assert (f"{stats}: groups[0]: sigma_x must be a 8 x 8 matrix whose "
                "diagonal is >= 0" in capsys.readouterr().err)
        assert not out.exists()

    def test_overflowing_mixed_covariance_exits_1_naming_the_group(self, tmp_path,
                                                                   capsys):
        # finite sums and energies whose weighted sum overflows float64
        d = 16
        sigma = 1e200 * np.eye(d)
        stats = str(tmp_path / "huge.cqb")
        formats.write_stats(stats, [CalibStats(
            group=ProjectionGroup("attn-input", d, "g0"), sigma_x=sigma,
            sigma_w=sigma, energy_x=1.6e201, energy_w=1.6e201, tokens_seen=d)])
        out = tmp_path / "p.cqb"
        assert run("solve", "--stats", stats, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"{stats}: groups[0] (group 'g0'): the mixed covariance" in err
        assert "overflows float64" in err
        assert not out.exists()

    def test_group_of_dim_1_exits_2_naming_rank(self, workspace, capsys):
        # no rank splits R^1 in two: the default rank of 1 is out of range
        shard = str(workspace["tmp"] / "x1d.cqt")
        formats.write_tensor(shard, "x1d", np.ones((4, 1)))
        weight = str(workspace["tmp"] / "w1d.cqt")
        formats.write_tensor(weight, "w1d", np.ones((1, 1)))
        cfg = {"groups": [{"name": "g", "kind": "attn-input", "dim": 1,
                           "activations": [shard], "weights": [weight]}]}
        cfg_path = workspace["tmp"] / "dim1.json"
        cfg_path.write_text(json.dumps(cfg))
        stats = str(workspace["tmp"] / "s1.cqb")
        assert run("calibrate", "--config", str(cfg_path), "--out", stats) == 0
        out = workspace["tmp"] / "p1.cqb"
        assert run("solve", "--stats", stats, "--out", str(out)) == 2
        assert "rank must be an int in [1, 1), got 1" in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_matches_library(self, workspace):
        stats = str(workspace["tmp"] / "stats.cqb")
        plan_path = str(workspace["tmp"] / "plan.cqb")
        report = str(workspace["tmp"] / "rep.jsonl")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        run("solve", "--stats", stats, "--out", plan_path,
            "--config", config_file(workspace["tmp"], seed=3))
        assert run("simulate", "--plan", plan_path, "--x", workspace["x1"],
                   "--w", workspace["w"], "--out", report) == 0
        row = formats.read_report(report)[0]
        plan = formats.read_plan(plan_path)[0]
        _, rep = execute_plan(workspace["x1_arr"], workspace["w_arr"], plan)
        assert row.exact_error == rep.exact_error

    def test_group_named_twice_in_the_plan_exits_2(self, workspace, capsys):
        stats = stats_from_tensors(workspace["x1_arr"], workspace["w_arr"], name="g")
        plan_path = str(workspace["tmp"] / "plan.cqb")
        formats.write_plan(plan_path, [build_plan(stats, 2, 4, 8, seed=s) for s in (1, 2)])
        out = workspace["tmp"] / "rep.jsonl"
        for group, count in (("g", 2), ("h", 0)):
            assert run("simulate", "--plan", plan_path, "--group", group,
                       "--x", workspace["x1"], "--w", workspace["w"],
                       "--out", str(out)) == 2
            assert (f"{plan_path} holds {count} groups named {group!r}, not one"
                    in capsys.readouterr().err)
            assert not out.exists()

    def test_plan_of_two_groups_needs_group(self, workspace, capsys):
        plans = [build_plan(stats_from_tensors(workspace["x1_arr"], workspace["w_arr"],
                                               name=name), 2, 4, 8) for name in ("g0", "g1")]
        plan_path = str(workspace["tmp"] / "plan.cqb")
        formats.write_plan(plan_path, plans)
        out = workspace["tmp"] / "rep.jsonl"
        args = ["--plan", plan_path, "--x", workspace["x1"], "--w", workspace["w"],
                "--out", str(out)]
        assert run("simulate", *args) == 2
        assert (f"{plan_path} holds groups ['g0', 'g1']: choose one with --group"
                in capsys.readouterr().err)
        assert not out.exists()
        assert run("simulate", *args, "--group", "g1") == 0
        assert formats.read_report(str(out))[0].group == "g1"

    @pytest.mark.parametrize("m", [64, 8], ids=["gram", "rows"])
    def test_mapped_f32_x_reports_as_its_f64_copy(self, workspace, monkeypatch, m):
        # blocks of MIN_BLOCK_ROWS (256): three and a 37-row tail
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 1)
        n = 3 * 256 + 37
        assert engine.use_gram_form(n, 8, m) == (m == 64)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((n, 8)).astype(np.float32)
        tmp = workspace["tmp"]
        w = str(tmp / "w_out.cqt")
        formats.write_tensor(w, "w", rng.standard_normal((8, m)))
        stats, plan = str(tmp / "stats.cqb"), str(tmp / "plan.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        run("solve", "--stats", stats, "--out", plan)
        read, calibrate = formats.read_tensor, engine.calibrate
        reads, sums = [], []
        monkeypatch.setattr(formats, "read_tensor",
                            lambda path: reads.append(path) or read(path))
        monkeypatch.setattr(engine, "calibrate",
                            lambda *a: sums.append(calibrate(*a)) or sums[-1])
        reports = {}
        for dtype in ("f32", "f64"):
            path = str(tmp / f"x_{dtype}.cqt")
            formats.write_tensor(path, "x", x, dtype=dtype)
            for command, args in (("simulate", ["--plan", plan]),
                                  ("analyze", ["--config",
                                               config_file(tmp, rank_ratio=0.25)])):
                out = tmp / f"{command}_{dtype}.jsonl"
                assert run(command, *args, "--x", path, "--w", w,
                           "--out", str(out)) == 0
                reports[command, dtype] = out.read_bytes()
        # simulate measures X in float64; analyze calibrates the mapped
        # float32 X in float32 Grams of 256 rows, summed in float64
        assert reports["simulate", "f32"] == reports["simulate", "f64"]
        f32, f64 = sums
        assert_within_f32_gram_bound(f32.sigma_x, f32.energy_x, x, 256)
        assert np.array_equal(f32.sigma_w, f64.sigma_w)
        assert_reports_agree(*(formats.read_report(str(tmp / f"analyze_{dtype}.jsonl"))
                               for dtype in ("f32", "f64")), rel=1e-3)
        assert reads == []  # X and W are mapped, never copied whole


class TestOneGroupAtATime:
    """calibrate and solve hold one group at a time, each writer fails on a
    bad --out before any work, and simulate --group builds only its plan."""

    D = 512

    @pytest.fixture
    def configs(self, tmp_path):
        """Configs of one and of four groups, each an f32 X of 2d rows and a
        d x d f32 W."""
        d, rng = self.D, np.random.default_rng(21)
        groups = []
        for g in range(4):
            paths = {}
            for name, rows in (("x", 2 * d), ("w", d)):
                paths[name] = str(tmp_path / f"{name}{g}.cqt")
                formats.write_tensor(paths[name], name, rng.standard_normal(
                    (rows, d), dtype=np.float32), dtype="f32")
            groups.append({"name": f"g{g}", "kind": "attn-input", "dim": d,
                           "activations": [paths["x"]], "weights": [paths["w"]]})
        configs = {count: tmp_path / f"groups{count}.json" for count in (1, 4)}
        for count, path in configs.items():
            path.write_text(json.dumps({"groups": groups[:count]}))
        return configs

    def test_calibrate_and_solve_peaks_do_not_grow_with_the_group_count(
            self, tmp_path, configs):
        def peaks(count):
            cfg = str(configs[count])
            stats, plan = str(tmp_path / f"s{count}.cqb"), str(tmp_path / f"p{count}.cqb")
            out = []
            for argv in (("calibrate", "--config", cfg, "--out", stats),
                         ("solve", "--config", cfg, "--stats", stats, "--out", plan)):
                tracemalloc.start()
                try:
                    assert run(*argv) == 0
                    out.append(tracemalloc.get_traced_memory()[1] / (8 * self.D ** 2))
                finally:
                    tracemalloc.stop()
            return np.array(out)

        peaks(1)  # the first run's one-time allocations are not the groups'
        one, four = peaks(1), peaks(4)
        assert np.all(np.abs(four - one) < 0.1), (one, four)  # in d x d

    def test_simulate_group_checks_one_basis(self, workspace, monkeypatch):
        plan = str(workspace["tmp"] / "plan.cqb")
        formats.write_plan(plan, [
            build_plan(stats_from_tensors(workspace["x1_arr"], workspace["w_arr"],
                                          name=f"g{i}"), 2, 4, 8) for i in range(4)])
        checked, orthonormal = [], formats._orthonormal
        monkeypatch.setattr(formats, "_orthonormal", lambda vectors, where: (
            checked.append(where) or orthonormal(vectors, where)))
        assert run("simulate", "--plan", plan, "--group", "g2", "--x", workspace["x1"],
                   "--w", workspace["w"], "--out", str(workspace["tmp"] / "r.jsonl")) == 0
        assert checked == [f"{plan}: plans[2]"]

    def test_calibrate_to_a_missing_directory_maps_no_input(self, workspace,
                                                             monkeypatch, capsys):
        mapped, map_tensor = [], formats.map_tensor
        monkeypatch.setattr(formats, "map_tensor",
                            lambda path: mapped.append(path) or map_tensor(path))
        out = str(workspace["tmp"] / "missing_dir" / "s.cqb")
        assert run("calibrate", "--config", workspace["cfg"], "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n")
        assert mapped == []

    def test_solve_to_a_missing_directory_runs_no_eigensolve(self, workspace,
                                                             monkeypatch, capsys):
        stats = str(workspace["tmp"] / "s.cqb")
        assert run("calibrate", "--config", workspace["cfg"], "--out", stats) == 0
        solved, solve_partition = [], engine.solve_partition
        monkeypatch.setattr(engine, "solve_partition", lambda *args, **kwargs: (
            solved.append(args) or solve_partition(*args, **kwargs)))
        out = str(workspace["tmp"] / "missing_dir" / "p.cqb")
        assert run("solve", "--stats", stats, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n")
        assert solved == []

    def test_a_failed_third_group_leaves_no_file(self, workspace, capsys):
        group = workspace["cfg_obj"]["groups"][0]
        missing = str(workspace["tmp"] / "missing.cqt")
        cfg = workspace["tmp"] / "three.json"
        cfg.write_text(json.dumps({"groups": [
            dict(group, name="g0"), dict(group, name="g1"),
            dict(group, name="g2", activations=[missing])]}))
        out = workspace["tmp"] / "s.cqb"
        files = sorted(os.listdir(workspace["tmp"]))
        assert run("calibrate", "--config", str(cfg), "--out", str(out)) == 2
        assert f"groups[2] (group 'g2'): activation file {missing}" in capsys.readouterr().err
        assert sorted(os.listdir(workspace["tmp"])) == files  # no file, no temp file
        # an existing file is kept as it was
        assert run("calibrate", "--config", workspace["cfg"], "--out", str(out)) == 0
        before = out.read_bytes()
        assert run("calibrate", "--config", str(cfg), "--out", str(out)) == 2
        assert out.read_bytes() == before
        assert sorted(os.listdir(workspace["tmp"])) == sorted(files + ["s.cqb"])


class TestAnalyze:
    # d = 16 in two blocks of MIN_BLOCK_ROWS (256) rows: n = 512 and m = 64 is
    # the Gram form, n = 64 and m = 8 the row form
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("n, m", [(512, 64), (64, 8)], ids=["gram", "rows"])
    def test_x_w_is_calibrate_solve_simulate(self, tmp_path, monkeypatch, n, m, dtype):
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 1)
        d = 16
        assert engine.use_gram_form(n, d, m) == (m == 64)
        x, w = generate_instance(weight_anisotropic_spec(d, n, m, seed=4))
        paths = {name: str(tmp_path / f"{name}.cqt") for name in ("x", "w")}
        formats.write_tensor(paths["x"], "x", x, dtype=dtype)
        formats.write_tensor(paths["w"], "w", w, dtype=dtype)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rank_ratio": 0.25, "seed": 9, "groups": [
            {"name": "g", "kind": "attn-input", "dim": d,
             "activations": [paths["x"]], "weights": [paths["w"]]}]}))
        stats, plan = str(tmp_path / "s.cqb"), str(tmp_path / "p.cqb")
        simulated, analyzed = str(tmp_path / "sim.jsonl"), str(tmp_path / "an.jsonl")
        tensors = ["--x", paths["x"], "--w", paths["w"]]
        assert run("calibrate", "--config", str(cfg), "--out", stats) == 0
        assert run("solve", "--stats", stats, "--config", str(cfg), "--out", plan) == 0
        assert run("simulate", "--plan", plan, *tensors, "--out", simulated) == 0
        assert run("analyze", "--config", str(cfg), *tensors, "--out", analyzed) == 0
        (sim,), joint = formats.read_report(simulated), formats.read_report(analyzed)[0]
        assert joint.objective == "joint"
        numeric = [f.name for f in dataclasses.fields(engine.ErrorReport)
                   if f.name not in ("group", "objective", "relative_reduction")]
        assert ({c: getattr(joint, c) for c in numeric}
                == {c: getattr(sim, c) for c in numeric})

    def test_synthetic_weight_dominant(self, tmp_path):
        spec = weight_anisotropic_spec(16, 64, 8, seed=5)
        spec_path = str(tmp_path / "spec.json")
        Path(spec_path).write_text(json.dumps(spec.to_json()))
        report = str(tmp_path / "rep.jsonl")
        assert run("analyze", "--synthetic", spec_path, "--out", report) == 0
        rows = formats.read_report(report)
        joint = next(r for r in rows if r.objective == "joint")
        assert joint.relative_reduction > 0.0

    def test_sweep_summary(self, tmp_path, capsys):
        spec = weight_anisotropic_spec(16, 64, 8, seed=0)
        spec_path = str(tmp_path / "spec.json")
        Path(spec_path).write_text(json.dumps(spec.to_json()))
        report = str(tmp_path / "rep.jsonl")
        assert run("analyze", "--synthetic", spec_path, "--sweep", "5",
                   "--out", report) == 0
        summary = json.loads(capsys.readouterr().out)
        rows = formats.read_report(report)
        assert len(rows) == 15
        assert summary == summarize([rows[k:k + 3] for k in range(0, 15, 3)])
        assert summary["instances"] == 5
        assert 0.0 <= summary["win_rate_vs_activation"] <= 1.0
        assert 0.0 <= summary["win_rate_vs_weight"] <= 1.0

    def test_sweep_draws_from_synthetic_spec(self, tmp_path):
        spec = aligned_spec(16, 64, 8, seed=0)
        spec_path = str(tmp_path / "spec.json")
        Path(spec_path).write_text(json.dumps(spec.to_json()))
        report = str(tmp_path / "rep.jsonl")
        assert run("analyze", "--synthetic", spec_path,
                   "--config", config_file(tmp_path, seed=5), "--sweep", "3",
                   "--out", report) == 0
        rows = formats.read_report(report)
        for k in range(3):
            x, w = generate_instance(dataclasses.replace(spec, seed=5 + k))
            joint = analyze_layer(x, w, 2, 4, 8, seed=5 + k)[0]
            assert rows[3 * k].exact_error == joint.exact_error

    def test_bad_sweep_exits_2(self, workspace):
        spec_path = str(workspace["tmp"] / "spec.json")
        Path(spec_path).write_text(json.dumps(aligned_spec(8, 16, 4, seed=0).to_json()))
        out = str(workspace["tmp"] / "r.jsonl")
        assert run("analyze", "--x", workspace["x1"], "--w", workspace["w"],
                   "--sweep", "2", "--out", out) == 2
        assert run("analyze", "--synthetic", spec_path, "--sweep", "-1",
                   "--out", out) == 2

    def test_requires_inputs(self, tmp_path):
        assert run("analyze", "--out", str(tmp_path / "r.jsonl")) == 2

    def test_overflowing_x_exits_1_as_simulate_does(self, workspace, capsys):
        # finite entries whose squares overflow: a numerical failure in both
        x = str(workspace["tmp"] / "huge.cqt")
        formats.write_tensor(x, "huge", np.full((16, 8), 1e200))
        stats, plan = (str(workspace["tmp"] / name) for name in ("s.cqb", "p.cqb"))
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        run("solve", "--stats", stats, "--out", plan)
        out = workspace["tmp"] / "r.jsonl"
        assert run("analyze", "--x", x, "--w", workspace["w"], "--out", str(out)) == 1
        assert "the sum of x's squares overflows float64" in capsys.readouterr().err
        assert run("simulate", "--plan", plan, "--x", x, "--w", workspace["w"],
                   "--out", str(out)) == 1
        assert not out.exists()

    def test_overflowing_mixed_covariance_exits_1(self, tmp_path, capsys):
        # each energy is finite, but lambda_x Sigma_X = gamma E_W Sigma_X is not
        rng = np.random.default_rng(6)
        x, w = str(tmp_path / "x.cqt"), str(tmp_path / "w.cqt")
        formats.write_tensor(x, "x", 1e100 * rng.standard_normal((64, 16)))
        formats.write_tensor(w, "w", 1e100 * rng.standard_normal((16, 16)))
        out = tmp_path / "r.jsonl"
        assert run("analyze", "--x", x, "--w", w, "--config",
                   config_file(tmp_path, rank_ratio=0.25), "--out", str(out)) == 1
        assert "the mixed covariance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tensors", [["--x"], ["--w"], ["--x", "--w"]])
    def test_synthetic_and_tensors_exit_2_naming_both(self, workspace, capsys,
                                                      tensors):
        spec = spec_file(workspace["tmp"], aligned_spec(8, 16, 4, seed=0).to_json())
        out = workspace["tmp"] / "r.jsonl"
        paths = {"--x": workspace["x1"], "--w": workspace["w"]}
        given = [a for flag in tensors for a in (flag, paths[flag])]
        assert run("analyze", "--synthetic", spec, *given, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "--synthetic or --x and --w, not both" in err
        assert not out.exists()

    def test_dim_is_x_columns_and_a_bad_w_is_named(self, tmp_path, capsys):
        # W's rows are not the dim: a 1 x 8 W against a 64 x 16 X is W's fault
        x, w = str(tmp_path / "x.cqt"), str(tmp_path / "w.cqt")
        formats.write_tensor(x, "x", np.ones((64, 16)))
        formats.write_tensor(w, "w", np.ones((1, 8)))
        out = tmp_path / "r.jsonl"
        assert run("analyze", "--x", x, "--w", w, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: --x {x} --w {w}: w must be 2-d with 16 rows, got shape (1, 8)\n")
        assert not out.exists()

    # the default ratio, or a config's that gives rank 2
    @pytest.mark.parametrize("ratio", [None, 0.25], ids=["ratio", "rank"])
    @pytest.mark.parametrize("shape", [(16 * 8,), (2, 8, 8)], ids=["1-d", "3-d"])
    def test_x_not_2d_exits_2(self, workspace, capsys, shape, ratio):
        x = str(workspace["tmp"] / "x_nd.cqt")
        formats.write_tensor(x, "x", np.ones(shape))
        out = workspace["tmp"] / "r.jsonl"
        cfg = [] if ratio is None else [
            "--config", config_file(workspace["tmp"], rank_ratio=ratio)]
        assert run("analyze", "--x", x, "--w", workspace["w"], *cfg,
                   "--out", str(out)) == 2
        assert "must be 2-d" in capsys.readouterr().err
        assert not out.exists()

    # spec seed 11; config file -> the seed of draw 0
    SEED_RULE = {
        "spec": (None, 11),
        "config-without-seed": ({"bits_low": 4}, 11),
        "config": ({"seed": 7}, 7),
    }

    @pytest.mark.parametrize("sweep", [None, 3])
    @pytest.mark.parametrize("case", sorted(SEED_RULE))
    def test_draw_k_is_seeded_run_seed_plus_k(self, tmp_path, case, sweep):
        cfg, run_seed = self.SEED_RULE[case]
        spec = aligned_spec(8, 24, 4, seed=11)
        argv = ["--synthetic", spec_file(tmp_path, spec.to_json())]
        if cfg is not None:
            argv += ["--config", config_file(tmp_path, **cfg)]
        if sweep is not None:
            argv += ["--sweep", str(sweep)]
        report = str(tmp_path / "rep.jsonl")
        assert run("analyze", *argv, "--out", report) == 0
        rows = formats.read_report(report)
        assert len(rows) == 3 * (sweep or 1)
        for k in range(sweep or 1):
            seed = run_seed + k
            x, w = generate_instance(dataclasses.replace(spec, seed=seed))
            # rank 1: the default ratio 0.125 of d = 8
            assert rows[3 * k:3 * k + 3] == analyze_layer(x, w, 1, 4, 8, seed=seed)

    def test_sweep_1_is_no_sweep(self, tmp_path, capsys):
        spec = spec_file(tmp_path, weight_anisotropic_spec(16, 64, 8, seed=3).to_json())
        outputs = []
        for i, sweep in enumerate([[], ["--sweep", "1"]]):
            report = tmp_path / f"rep{i}.jsonl"
            assert run("analyze", "--synthetic", spec, *sweep,
                       "--out", str(report)) == 0
            outputs.append((report.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1])["instances"] == 1

    def test_dim_1_exits_2_naming_rank(self, tmp_path, capsys):
        # no rank splits R^1 in two: the default rank of 1 is out of range
        spec = spec_file(tmp_path, aligned_spec(1, 32, 8, seed=0).to_json())
        out = tmp_path / "r.jsonl"
        assert run("analyze", "--synthetic", spec, "--out", str(out)) == 2
        assert "rank must be an int in [1, 1), got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_rank_ratio_r_over_d_gives_rank_r(self):
        # d * (r / d) rounds to just below r for 1,401 of the pairs d <= 300;
        # 23,170 is the largest dim a group may have
        dims = [*range(2, 301), 4096, 11008, 14336, 23170]
        missed = [(d, r) for d in dims for r in range(1, d)
                  if cli.rank_of(cli.RunConfig.from_json({"rank_ratio": r / d}, "cfg"),
                                 d) != r]
        assert missed == []

    # 100 * 0.29 is 28.999...; the rest are exact or far from an int
    @pytest.mark.parametrize("d, ratio, rank", [
        (100, 0.29, 29), (100, 0.57, 57), (28, 0.125, 3), (64, 0.125, 8), (8, 0.1, 1)])
    def test_rank_ratio_floors_d_times_ratio(self, tmp_path, d, ratio, rank):
        rng = np.random.default_rng(d)
        x, w = str(tmp_path / "x.cqt"), str(tmp_path / "w.cqt")
        formats.write_tensor(x, "x", rng.standard_normal((2 * d, d)))
        formats.write_tensor(w, "w", rng.standard_normal((d, 4)))
        out = tmp_path / "r.jsonl"
        assert run("analyze", "--x", x, "--w", w, "--config",
                   config_file(tmp_path, rank_ratio=ratio), "--out", str(out)) == 0
        assert {row.rank for row in formats.read_report(str(out))} == {rank}


# d * 0.99999999999 + 1e-9 floors to d at d = 16, and no rank splits R^1
@pytest.mark.parametrize("d, ratio", [(16, 0.99999999999), (1, 0.5)],
                         ids=["just-below-1", "dim-1"])
class TestRankRatioThatGivesNoRank:
    """A rank_ratio in (0, 1) that gives no rank in [1, d) exits 2 with one
    error line naming the field, its value, the dim and the config file."""

    @pytest.fixture
    def layer(self, tmp_path, d, ratio):
        rng = np.random.default_rng(d)
        x, w = str(tmp_path / "x.cqt"), str(tmp_path / "w.cqt")
        formats.write_tensor(x, "x", rng.standard_normal((4 * d, d)))
        formats.write_tensor(w, "w", rng.standard_normal((d, 4)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rank_ratio": ratio, "groups": [
            {"name": "g", "kind": "attn-input", "dim": d,
             "activations": [x], "weights": [w]}]}))
        return x, w, str(cfg)

    def assert_named(self, capsys, out, cfg, d, ratio):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{cfg}: rank_ratio {ratio!r} at dim {d}: rank must be" in err
        assert not out.exists()

    def test_solve(self, tmp_path, capsys, layer, d, ratio):
        stats, out = str(tmp_path / "s.cqb"), tmp_path / "p.cqb"
        assert run("calibrate", "--config", layer[2], "--out", stats) == 0
        assert run("solve", "--stats", stats, "--config", layer[2],
                   "--out", str(out)) == 2
        self.assert_named(capsys, out, layer[2], d, ratio)

    def test_analyze_synthetic(self, tmp_path, capsys, layer, d, ratio):
        spec = spec_file(tmp_path, aligned_spec(d, 32, 8, seed=0).to_json())
        out = tmp_path / "r.jsonl"
        assert run("analyze", "--synthetic", spec, "--config", layer[2],
                   "--out", str(out)) == 2
        self.assert_named(capsys, out, layer[2], d, ratio)

    def test_analyze_x(self, tmp_path, capsys, layer, d, ratio):
        out = tmp_path / "r.jsonl"
        assert run("analyze", "--x", layer[0], "--w", layer[1], "--config", layer[2],
                   "--out", str(out)) == 2
        self.assert_named(capsys, out, layer[2], d, ratio)


def spec_file(tmp_path, obj) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _spec_edit(**fields):
    return lambda spec: spec | fields


def _spec_pop(key):
    return lambda spec: {k: v for k, v in spec.items() if k != key}


# edits of a valid synthetic spec, and what the error message must name
MALFORMED_SPECS = {
    "string-d": (_spec_edit(d="8"), "d must be"),
    "no-d": (_spec_pop("d"), "d must be"),
    "a-list": (lambda spec: [spec], "JSON object"),
    "number-spectrum": (_spec_edit(activation_spectrum=3), "activation_spectrum"),
    "string-spectrum": (lambda spec: spec | {"weight_spectrum": [
        str(v) for v in spec["weight_spectrum"]]}, "weight_spectrum"),
    "string-misalignment": (_spec_edit(misalignment="x"), "misalignment"),
    # float64 arrays beyond 4 GiB: X (n x d), W (d x m), a d x d rotation
    "huge-n": (_spec_edit(n=10**15), "n must be small enough for X"),
    "huge-m": (_spec_edit(m=10**15), "m must be small enough for W"),
    "huge-d": (_spec_edit(d=2**15), "d must be small enough"),
}


class TestAnalyzeSchema:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
    def test_malformed_synthetic_spec_exits_2(self, tmp_path, capsys, case):
        edit, word = MALFORMED_SPECS[case]
        spec = spec_file(tmp_path, edit(aligned_spec(8, 16, 4, seed=0).to_json()))
        out = tmp_path / "r.jsonl"
        assert run("analyze", "--synthetic", spec, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert word in err and spec in err
        assert not out.exists()


class TestBitsOrder:
    """bits_low above bits_high is a config error, found before any solve."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = engine.solve_partition
        monkeypatch.setattr(engine, "solve_partition",
                            lambda *a, **k: calls.append(a) or solve(*a, **k))
        return calls

    def test_solve_exits_2_naming_bits_low(self, workspace, capsys, solves):
        stats = str(workspace["tmp"] / "stats.cqb")
        assert run("calibrate", "--config", workspace["cfg"], "--out", stats) == 0
        out = workspace["tmp"] / "p.cqb"
        assert run("solve", "--stats", stats, "--config",
                   config_file(workspace["tmp"], bits_low=8, bits_high=4),
                   "--out", str(out)) == 2
        assert "bits_low" in capsys.readouterr().err
        assert solves == [] and not out.exists()

    def test_analyze_exits_2_naming_bits_low(self, tmp_path, capsys, solves):
        spec = spec_file(tmp_path, aligned_spec(8, 16, 4, seed=0).to_json())
        out = tmp_path / "r.jsonl"
        assert run("analyze", "--synthetic", spec, "--config",
                   config_file(tmp_path, bits_low=8, bits_high=4), "--out", str(out)) == 2
        assert "bits_low" in capsys.readouterr().err
        assert solves == [] and not out.exists()


class TestEveryFlagIsRead:
    """From a fixed baseline, changing any one plan field of the config, or
    any one flag a command takes, changes the bytes it writes; a plan field
    has no flag."""

    @pytest.fixture
    def layer(self, tmp_path):
        x, w = generate_instance(weight_anisotropic_spec(16, 64, 16, seed=1))
        paths = {"x": str(tmp_path / "x.cqt"), "w": str(tmp_path / "w.cqt"),
                 "cfg": str(tmp_path / "cfg.json"), "stats": str(tmp_path / "s.cqb")}
        formats.write_tensor(paths["x"], "x", x)
        formats.write_tensor(paths["w"], "w", w)
        Path(paths["cfg"]).write_text(json.dumps({"groups": [
            {"name": "g", "kind": "attn-input", "dim": 16,
             "activations": [paths["x"]], "weights": [paths["w"]]}]}))
        assert run("calibrate", "--config", paths["cfg"], "--out", paths["stats"]) == 0
        return paths

    # each plan field of a config, and a value other than its default
    FIELDS = [("rank_ratio", 0.25), ("bits_low", 3), ("bits_high", 6), ("seed", 5),
              ("rotation", "hadamard")]

    def outputs(self, tmp_path, layer, command, changes):
        """The bytes `command` writes from the baseline, no config, then with
        each change: a config that sets a field, or a flag, and its value."""
        args = {"solve": ["--stats", layer["stats"]],
                "analyze": ["--x", layer["x"], "--w", layer["w"]]}[command]
        out = []
        for i, (key, value) in enumerate([(None, None), *changes]):
            extra = ([] if key is None else [key, value] if key.startswith("--")
                     else ["--config", config_file(tmp_path, **{key: value})])
            path = tmp_path / f"{command}.{i}"
            assert run(command, *args, *extra, "--out", str(path)) == 0
            out.append(path.read_bytes())
        return out

    def test_solve(self, tmp_path, layer):
        changes = [*self.FIELDS, ("objective", "weight"), ("--objective", "activation")]
        base, *changed = self.outputs(tmp_path, layer, "solve", changes)
        assert [key for (key, _), b in zip(changes, changed) if b == base] == []

    def test_analyze(self, tmp_path, layer):
        base, *changed = self.outputs(tmp_path, layer, "analyze", self.FIELDS)
        assert [key for (key, _), b in zip(self.FIELDS, changed) if b == base] == []

    @pytest.mark.parametrize("command, flag", [
        ("calibrate", ["--seed", "3"]), ("calibrate", ["--bits-low", "3"]),
        ("analyze", ["--objective", "weight"]), ("simulate", ["--bypass"]),
        ("simulate", ["--format", "json"]), ("analyze", ["--format", "csv"])])
    def test_flags_nothing_reads_are_rejected(self, capsys, command, flag):
        required = {"calibrate": ["--config", "c.json"], "analyze": [],
                    "simulate": ["--plan", "p.cqb", "--x", "x.cqt", "--w", "w.cqt"]}
        with pytest.raises(SystemExit) as e:
            main([command, *required[command], "--out", "o", *flag])
        assert e.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestUsability:
    def test_each_command_takes_exactly_its_options(self):
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        options = {name: {o for a in p._actions for o in a.option_strings}
                   for name, p in sub.choices.items()}
        help_ = {"-h", "--help"}
        assert options == {
            "calibrate": help_ | {"--config", "--out"},
            "solve": help_ | {"--config", "--objective", "--stats", "--out"},
            "simulate": help_ | {"--plan", "--x", "--w", "--group", "--out"},
            "analyze": help_ | {"--config", "--synthetic", "--x", "--w", "--sweep",
                                "--out"}}

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["solve", "--help"], ["analyze", "--help"]):
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == 0

    def test_invalid_flag_exits_2_without_output(self, tmp_path, capsys):
        out = str(tmp_path / "never.cqb")
        with pytest.raises(SystemExit) as e:
            main(["solve", "--stats", "s", "--out", out, "--bogus"])
        assert e.value.code == 2
        assert not (tmp_path / "never.cqb").exists()

    def test_quant_config_field_exits_2(self, workspace):
        stats = str(workspace["tmp"] / "stats.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        cfg_path = str(workspace["tmp"] / "quant.json")
        Path(cfg_path).write_text(json.dumps({"quant": {"bits": 4}}))
        assert run("solve", "--stats", stats, "--config", cfg_path,
                   "--out", str(workspace["tmp"] / "p.cqb")) == 2

    def test_unwritable_out_names_it_not_a_temp_file(self, workspace, capsys):
        out = str(workspace["tmp"] / "missing_dir" / "s.cqb")
        assert run("calibrate", "--config", workspace["cfg"], "--out", out) == 2
        err = capsys.readouterr().err
        assert f"No such file or directory: '{out}'" in err and ".tmp" not in err

    def test_bad_config_field_exits_2(self, workspace):
        cfg_path = str(workspace["tmp"] / "weird.json")
        Path(cfg_path).write_text(json.dumps({"groups": [], "bogus_field": 1}))
        assert run("calibrate", "--config", cfg_path,
                   "--out", str(workspace["tmp"] / "s.cqb")) == 2


def _top(**fields):
    return lambda cfg: cfg.update(fields)


def _in_group(**fields):
    return lambda cfg: cfg["groups"][0].update(fields)


def _drop_from_group(key):
    def edit(cfg):
        del cfg["groups"][0][key]
    return edit


# edits of the workspace config, and the field the error message must name:
# the plan fields, then the groups, which only calibrate reads but every
# command checks
MALFORMED_CONFIGS = {
    "not-an-object": (lambda cfg: 5, "JSON object"),
    "a-list": (lambda cfg: [cfg], "JSON object"),
    "string-bits-low": (_top(bits_low="4"), "bits_low"),
    "bool-bits-high": (_top(bits_high=True), "bits_high"),
    "float-bits-low": (_top(bits_low=4.0), "bits_low"),
    "bits-low-above-bits-high": (_top(bits_low=8, bits_high=4), "bits_low"),
    "string-rank-ratio": (_top(rank_ratio="0.5"), "rank_ratio"),
    "nan-rank-ratio": (_top(rank_ratio=float("nan")), "rank_ratio"),
    "rank-ratio-of-1": (_top(rank_ratio=1.0), "rank_ratio"),
    "string-seed": (_top(seed="7"), "seed"),
    "bool-seed": (_top(seed=True), "seed"),
    "negative-seed": (_top(seed=-1), "seed"),
    "list-objective": (_top(objective=["joint"]), "objective"),
    "unknown-rotation": (_top(rotation="givens"), "rotation"),
}
MALFORMED_CONFIG_GROUPS = {
    "groups-not-a-list": (_top(groups={"name": "g0"}), "groups"),
    "group-not-an-object": (_top(groups=["g0"]), "groups[0]"),
    "string-dim": (_in_group(dim="8"), "dim"),
    "bool-dim": (_in_group(dim=True), "dim"),
    "name-not-a-string": (_in_group(name=["g0"]), "name"),
    "activations-a-string": (_in_group(activations="x.cqt"), "activations"),
    "weights-of-numbers": (_in_group(weights=[1, 2]), "weights"),
    "kv-kind": (_in_group(kind="kv-key"), "kind"),
    "head-dim-field": (_in_group(head_dim=8), "head_dim"),
    "member-shapes-field": (_in_group(member_shapes=[[8, 8]]), "member_shapes"),
    "no-name": (_drop_from_group("name"), "name"),
    "empty-name": (_in_group(name=""), "name"),
}
ALL_MALFORMED_CONFIGS = MALFORMED_CONFIGS | MALFORMED_CONFIG_GROUPS


class TestConfigSchema:
    def write(self, workspace, case):
        edit, field = ALL_MALFORMED_CONFIGS[case]
        cfg = json.loads(json.dumps(workspace["cfg_obj"]))
        edited = edit(cfg)
        path = workspace["tmp"] / "bad.json"
        path.write_text(json.dumps(cfg if edited is None else edited))
        return str(path), field

    @pytest.mark.parametrize("case", sorted(ALL_MALFORMED_CONFIGS))
    def test_calibrate_exits_2_naming_the_field(self, workspace, capsys, case):
        cfg, field = self.write(workspace, case)
        out = workspace["tmp"] / "s.cqb"
        assert run("calibrate", "--config", cfg, "--out", str(out)) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(ALL_MALFORMED_CONFIGS))
    def test_solve_exits_2_naming_the_field(self, workspace, capsys, case):
        stats = str(workspace["tmp"] / "stats.cqb")
        assert run("calibrate", "--config", workspace["cfg"], "--out", stats) == 0
        cfg, field = self.write(workspace, case)
        out = workspace["tmp"] / "p.cqb"
        assert run("solve", "--stats", stats, "--config", cfg, "--out", str(out)) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [b"{", b"\xff\xfe{}", b""])
    def test_invalid_json_exits_2(self, workspace, capsys, text):
        path = workspace["tmp"] / "bad.json"
        path.write_bytes(text)
        assert run("calibrate", "--config", str(path),
                   "--out", str(workspace["tmp"] / "s.cqb")) == 2
        assert "invalid JSON" in capsys.readouterr().err
