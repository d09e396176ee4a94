import dataclasses
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subquant import calib, cli, engine, formats, solver
from subquant.calib import CalibStats, ProjectionGroup, accumulate_activations
from subquant.cli import main
from subquant.engine import (
    analyze_layer, build_plan, execute_plan, stats_from_tensors, summarize)
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
                f"weights[{len(weights) - 1}] has leading dim 16, group dim is 8" in err)

    def test_non_finite_weight_file_is_named(self, workspace, capsys):
        bad = str(workspace["tmp"] / "wnan.cqt")
        formats.write_tensor(bad, "wnan", np.full((8, 8), np.nan))
        code, cfg_path, written = self.calibrate_with_weights(workspace, [bad])
        err = capsys.readouterr().err
        assert code == 2 and not written
        assert (f"{cfg_path}: groups[0] (group 'g0'): weight file {bad}: "
                "weights[0] contains non-finite entries" in err)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_weight_energy_overflow_names_the_files(self, workspace, capsys):
        huge = str(workspace["tmp"] / "whuge.cqt")
        formats.write_tensor(huge, "whuge", np.full((8, 8), 1e200))
        code, cfg_path, written = self.calibrate_with_weights(workspace, [huge])
        err = capsys.readouterr().err
        assert code == 2 and not written
        assert (f"{cfg_path}: groups[0] (group 'g0'): weight file {huge}: "
                "energy_w must be a finite number >= 0, got inf" in err)

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
        group = ProjectionGroup(kind="attn-input", dim=8, name="g0")
        whole = accumulate_activations(CalibStats.empty(group), x.astype(np.float64))
        monkeypatch.setattr(calib, "BLOCK_BYTES", 5 * 8 * 8)  # 5-row blocks
        code, out = calibrate_shard(workspace, shard)
        assert code == 0
        stats = formats.read_stats(out)[0]
        assert np.allclose(stats.sigma_x, whole.sigma_x, rtol=1e-12, atol=0)
        assert stats.energy_x == pytest.approx(whole.energy_x, rel=1e-12)
        assert stats.tokens_seen == 23

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_shard_exits_2_naming_it(self, workspace, monkeypatch,
                                                 capsys, value):
        x = np.ones((23, 8))
        x[17, 3] = value
        shard = str(workspace["tmp"] / "bad.cqt")
        formats.write_tensor(shard, "bad", x, dtype="f32")
        monkeypatch.setattr(calib, "BLOCK_BYTES", 5 * 8 * 8)
        code, out = calibrate_shard(workspace, shard)
        assert code == 2
        assert shard in capsys.readouterr().err
        assert not (workspace["tmp"] / "shard_stats.cqb").exists()

    def test_truncated_shard_exits_2_before_folding(self, workspace, monkeypatch):
        shard = workspace["tmp"] / "cut.cqt"
        formats.write_tensor(str(shard), "cut", np.ones((23, 8)), dtype="f32")
        shard.write_bytes(shard.read_bytes()[:-4])
        folded = []
        monkeypatch.setattr(cli, "accumulate_activations",
                            lambda stats, batch: folded.append(batch) or stats)
        code, _ = calibrate_shard(workspace, str(shard))
        assert code == 2
        assert folded == []

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
        h = json.dumps({"name": "x", "dtype": "f64", "shape": [1.5, 8],
                        "layout": "row-major"}).encode()
        bad.write_bytes(b"CQT1" + struct.pack("<I", len(h)) + h + bytes(96))
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
                            lambda dim, seed, rotation: np.eye(dim))
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


def nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def framed(magic: bytes, header: str) -> bytes:
    h = header.encode()
    return magic + struct.pack("<I", len(h)) + h


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
        shard.write_bytes(framed(b"CQT1", '{"name": ' + nested(100_000) + "}"))
        self.exits_2(capsys, shard, workspace["tmp"] / "s.cqb", "calibrate",
                     "--config", calibrate_config(workspace, str(shard)))

    def test_bundle_header(self, tmp_path, capsys):
        stats = tmp_path / "deep.cqb"
        stats.write_bytes(framed(b"CQB1", '{"kind": ' + nested(100_000) + "}"))
        self.exits_2(capsys, stats, tmp_path / "p.cqb", "solve", "--stats", str(stats))


class TestSolve:
    def solve(self, workspace, *extra):
        stats = str(workspace["tmp"] / "stats.cqb")
        plan = str(workspace["tmp"] / "plan.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        assert run("solve", "--stats", stats, "--out", plan,
                   "--seed", "7", *extra) == 0
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
            "--out", plan_b, "--seed", "7")
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
        assert rotation_calls == [(1, 7), (7, 8)]  # rank 1 of d=8, seed 7

    def test_eigensolver_failure_exits_1(self, workspace, monkeypatch, capsys):
        stats = str(workspace["tmp"] / "stats.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)

        def no_convergence(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        assert run("solve", "--stats", stats,
                   "--out", str(workspace["tmp"] / "p.cqb")) == 1
        assert "did not converge" in capsys.readouterr().err

    def test_rank_flag_out_of_range_exits_2(self, workspace):
        stats = str(workspace["tmp"] / "stats.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        assert run("solve", "--stats", stats, "--rank", "99",
                   "--out", str(workspace["tmp"] / "p.cqb")) == 2

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
        run("solve", "--stats", stats, "--out", plan_path, "--seed", "3")
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


class TestAnalyze:
    def test_synthetic_weight_dominant(self, tmp_path):
        spec = weight_anisotropic_spec(16, 64, 8, seed=5)
        spec_path = str(tmp_path / "spec.json")
        Path(spec_path).write_text(json.dumps(spec.to_json()))
        report = str(tmp_path / "rep.jsonl")
        assert run("analyze", "--synthetic", spec_path, "--rank", "2",
                   "--out", report) == 0
        rows = formats.read_report(report)
        joint = next(r for r in rows if r.objective == "joint")
        assert joint.relative_reduction > 0.0

    def test_sweep_summary(self, tmp_path, capsys):
        spec = weight_anisotropic_spec(16, 64, 8, seed=0)
        spec_path = str(tmp_path / "spec.json")
        Path(spec_path).write_text(json.dumps(spec.to_json()))
        report = str(tmp_path / "rep.jsonl")
        assert run("analyze", "--synthetic", spec_path, "--rank", "2",
                   "--sweep", "5", "--out", report) == 0
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
        assert run("analyze", "--synthetic", spec_path, "--rank", "2",
                   "--seed", "5", "--sweep", "3", "--out", report) == 0
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

    # spec seed 11; (config file, flags) -> the seed of draw 0
    SEED_RULE = {
        "spec": (None, [], 11),
        "config-without-seed": ({"bits_low": 4}, [], 11),
        "config": ({"seed": 7}, [], 7),
        "flag": (None, ["--seed", "5"], 5),
        "flag-over-config": ({"seed": 7}, ["--seed", "5"], 5),
    }

    @pytest.mark.parametrize("sweep", [None, 3])
    @pytest.mark.parametrize("case", sorted(SEED_RULE))
    def test_draw_k_is_seeded_run_seed_plus_k(self, tmp_path, case, sweep):
        cfg, flags, run_seed = self.SEED_RULE[case]
        spec = aligned_spec(8, 24, 4, seed=11)
        argv = ["--synthetic", spec_file(tmp_path, spec.to_json()), "--rank", "2"]
        if cfg is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            argv += ["--config", str(tmp_path / "cfg.json")]
        if sweep is not None:
            argv += ["--sweep", str(sweep)]
        report = str(tmp_path / "rep.jsonl")
        assert run("analyze", *argv, *flags, "--out", report) == 0
        rows = formats.read_report(report)
        assert len(rows) == 3 * (sweep or 1)
        for k in range(sweep or 1):
            seed = run_seed + k
            x, w = generate_instance(dataclasses.replace(spec, seed=seed))
            assert rows[3 * k:3 * k + 3] == analyze_layer(x, w, 2, 4, 8, seed=seed)

    def test_sweep_1_is_no_sweep(self, tmp_path, capsys):
        spec = spec_file(tmp_path, weight_anisotropic_spec(16, 64, 8, seed=3).to_json())
        outputs = []
        for i, sweep in enumerate([[], ["--sweep", "1"]]):
            report = tmp_path / f"rep{i}.jsonl"
            assert run("analyze", "--synthetic", spec, "--rank", "2", *sweep,
                       "--out", str(report)) == 0
            outputs.append((report.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1])["instances"] == 1

    def test_rank_above_dim_exits_2_naming_rank(self, tmp_path, capsys):
        spec = spec_file(tmp_path, aligned_spec(16, 32, 8, seed=0).to_json())
        out = tmp_path / "r.jsonl"
        assert run("analyze", "--synthetic", spec, "--rank", "20",
                   "--out", str(out)) == 2
        assert "rank must be an int in [1, 16), got 20" in capsys.readouterr().err
        assert not out.exists()


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
        assert run("solve", "--stats", stats, "--bits-low", "8", "--bits-high", "4",
                   "--out", str(out)) == 2
        assert "bits_low" in capsys.readouterr().err
        assert solves == [] and not out.exists()

    def test_analyze_exits_2_naming_bits_low(self, tmp_path, capsys, solves):
        spec = spec_file(tmp_path, aligned_spec(8, 16, 4, seed=0).to_json())
        out = tmp_path / "r.jsonl"
        assert run("analyze", "--synthetic", spec, "--bits-low", "8",
                   "--bits-high", "4", "--out", str(out)) == 2
        assert "bits_low" in capsys.readouterr().err
        assert solves == [] and not out.exists()

    @pytest.mark.parametrize("fields, flags, bits", [
        ({"bits_low": 12}, ["--bits-high", "16"], (12, 16)),
        ({"bits_high": 3}, ["--bits-low", "2"], (2, 3)),
    ])
    def test_flags_apply_before_the_check(self, workspace, fields, flags, bits):
        stats = str(workspace["tmp"] / "stats.cqb")
        assert run("calibrate", "--config", workspace["cfg"], "--out", stats) == 0
        cfg = workspace["tmp"] / "bits.json"
        cfg.write_text(json.dumps(fields))
        out = workspace["tmp"] / "p.cqb"
        assert run("solve", "--stats", stats, "--config", str(cfg), *flags,
                   "--out", str(out)) == 0
        plan = formats.read_plan(str(out))[0]
        assert (plan.bits_low, plan.bits_high) == bits

    def test_flag_at_fault_is_named_without_the_file(self, workspace, capsys, solves):
        stats = str(workspace["tmp"] / "stats.cqb")
        assert run("calibrate", "--config", workspace["cfg"], "--out", stats) == 0
        cfg = workspace["tmp"] / "bits.json"
        cfg.write_text(json.dumps({"bits_high": 4}))
        out = workspace["tmp"] / "p.cqb"
        assert run("solve", "--stats", stats, "--config", str(cfg), "--bits-low", "8",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "bits_low must be at most bits_high (4), got 8" in err
        assert "bits.json" not in err
        assert solves == [] and not out.exists()


class TestCompare:
    def make_report(self, tmp_path, name, bits_low=4):
        rng = np.random.default_rng(1)
        x, w = rng.standard_normal((16, 8)), rng.standard_normal((8, 8))
        plan = build_plan(stats_from_tensors(x, w, name="g"), 2, bits_low, 8)
        _, rep = execute_plan(x, w, plan)
        path = str(tmp_path / name)
        formats.write_report(path, [rep])
        return path

    def test_identical_reports_zero_diff(self, tmp_path, capsys):
        a = self.make_report(tmp_path, "a.jsonl")
        b = self.make_report(tmp_path, "b.jsonl")
        assert run("compare", a, b) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["identical"] and diff["deltas"] == []

    def test_changed_bits_nonzero_delta(self, tmp_path, capsys):
        a = self.make_report(tmp_path, "a.jsonl", bits_low=4)
        b = self.make_report(tmp_path, "b.jsonl", bits_low=8)
        run("compare", a, b)
        diff = json.loads(capsys.readouterr().out)
        assert not diff["identical"]
        assert "exact_error" in diff["deltas"][0]

    def test_missing_column_schema_error(self, tmp_path, capsys):
        a = self.make_report(tmp_path, "a.jsonl")
        bad = str(tmp_path / "bad.csv")
        Path(bad).write_text("group,objective\ng,joint\n")
        out = tmp_path / "diff.json"
        assert run("compare", a, bad, "--out", str(out)) == 2
        assert f"{bad}: report row 0 is not JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["5", '{"group": "g"}'], ids=["number", "partial"])
    def test_malformed_json_row_exits_2(self, tmp_path, capsys, line):
        a = self.make_report(tmp_path, "a.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text(Path(a).read_text() + line + "\n")
        assert run("compare", a, str(bad)) == 2
        assert "row 1" in capsys.readouterr().err

    def test_non_reports_exit_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.txt"
        a.write_text("[1, 2]\n")
        b.write_text("hello\n")
        assert run("compare", str(a), str(b)) == 2
        assert f"{a}: report row 0 must be a JSON object" in capsys.readouterr().err
        assert run("compare", str(b), str(b)) == 2
        assert f"{b}: report row 0 is not JSON" in capsys.readouterr().err

    def test_exact_error_root_row_exits_2(self, tmp_path, capsys):
        # the column earlier versions derived from exact_error
        a = self.make_report(tmp_path, "a.jsonl")
        rooted = tmp_path / "rooted.jsonl"
        rooted.write_text(json.dumps(json.loads(Path(a).read_text())
                                     | {"exact_error_root": 1.0}) + "\n")
        out = tmp_path / "diff.json"
        assert run("compare", a, str(rooted), "--out", str(out)) == 2
        assert f"{rooted}: report row 0: unknown field(s) ['exact_error_root']" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_out_is_replaced_atomically(self, tmp_path, monkeypatch):
        a = self.make_report(tmp_path, "a.jsonl")
        out = tmp_path / "diff.json"
        out.write_text("old\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(formats.os, "replace", failing_replace)
        assert run("compare", a, a, "--out", str(out)) == 2
        assert out.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "diff.json"]
        monkeypatch.undo()
        assert run("compare", a, a, "--out", str(out)) == 0
        assert json.loads(out.read_text())["identical"]


class TestEveryFlagIsRead:
    """From a fixed baseline, changing any one flag a command takes changes
    the bytes it writes."""

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
        # a config that sets one field away from its default
        Path(paths["cfg"]).write_text(json.dumps({"bits_low": 3}))
        return paths

    FLAGS = {"--config": None, "--rank-ratio": "0.25", "--bits-low": "3",
             "--bits-high": "6", "--seed": "5", "--rotation": "hadamard",
             "--rank": "4"}

    def outputs(self, tmp_path, layer, command, flags):
        """The bytes `command` writes from the baseline, then with each flag."""
        args = {"solve": ["--stats", layer["stats"]],
                "analyze": ["--x", layer["x"], "--w", layer["w"]]}[command]
        out = []
        for i, (flag, value) in enumerate([(None, None), *flags.items()]):
            path = tmp_path / f"{command}.{i}"
            extra = [] if flag is None else [flag, value or layer["cfg"]]
            assert run(command, *args, *extra, "--out", str(path)) == 0
            out.append(path.read_bytes())
        return out

    def test_solve(self, tmp_path, layer):
        flags = self.FLAGS | {"--objective": "weight"}
        base, *changed = self.outputs(tmp_path, layer, "solve", flags)
        assert [flag for flag, b in zip(flags, changed) if b == base] == []

    def test_analyze(self, tmp_path, layer):
        base, *changed = self.outputs(tmp_path, layer, "analyze", self.FLAGS)
        assert [flag for flag, b in zip(self.FLAGS, changed) if b == base] == []

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

    def test_config_flag_precedence(self, workspace):
        # config seed 7 overridden by --seed 9
        stats = str(workspace["tmp"] / "stats.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        p7 = str(workspace["tmp"] / "p7.cqb")
        p9 = str(workspace["tmp"] / "p9.cqb")
        run("solve", "--stats", stats, "--config", workspace["cfg"], "--out", p7)
        run("solve", "--stats", stats, "--config", workspace["cfg"],
            "--seed", "9", "--out", p9)
        assert formats.read_plan(p7)[0].partition.seed == 7
        assert formats.read_plan(p9)[0].partition.seed == 9

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
# fields every command reads, then the groups only calibrate reads
MALFORMED_CONFIGS = {
    "not-an-object": (lambda cfg: 5, "JSON object"),
    "a-list": (lambda cfg: [cfg], "JSON object"),
    "string-bits-low": (_top(bits_low="4"), "bits_low"),
    "bool-bits-high": (_top(bits_high=True), "bits_high"),
    "float-bits-low": (_top(bits_low=4.0), "bits_low"),
    "bits-low-above-bits-high": (_top(bits_low=8, bits_high=4), "bits_low"),
    "string-rank-ratio": (_top(rank_ratio="0.5"), "rank_ratio"),
    "nan-rank-ratio": (_top(rank_ratio=float("nan")), "rank_ratio"),
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

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
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

    def test_bad_flag_value_names_the_flag(self, workspace, capsys):
        stats = str(workspace["tmp"] / "stats.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        assert run("solve", "--stats", stats, "--config", workspace["cfg"],
                   "--seed", "-2", "--out", str(workspace["tmp"] / "p.cqb")) == 2
        err = capsys.readouterr().err
        assert "seed must be an int >= 0, got -2" in err and "cfg.json" not in err
