import dataclasses
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subquant import calib, cli, formats
from subquant.calib import CalibStats, ProjectionGroup, accumulate_activations
from subquant.cli import main
from subquant.engine import analyze_layer, build_plan, execute_plan, stats_from_tensors
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


def calibrate_shard(workspace, shard, name="shard.json"):
    """Run calibrate on a config whose one group reads `shard`."""
    cfg = dict(workspace["cfg_obj"])
    cfg["groups"] = [dict(cfg["groups"][0], activations=[shard])]
    cfg_path = workspace["tmp"] / name
    cfg_path.write_text(json.dumps(cfg))
    out = str(workspace["tmp"] / "shard_stats.cqb")
    return run("calibrate", "--config", str(cfg_path), "--out", out), out


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

    def test_quantizer_range_overflow_exits_1(self, workspace, capsys):
        d = 8
        stats = str(workspace["tmp"] / "stats.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        plan = build_plan(formats.read_stats(stats)[0], 1, 4, 8)
        # the identity basis keeps the huge entries apart in one low-block row
        ident = dataclasses.replace(plan.partition, u=np.eye(d))
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

    def test_groups_of_equal_width_share_rotations(self, workspace, rotation_calls):
        cfg = dict(workspace["cfg_obj"])
        cfg["groups"] = [dict(cfg["groups"][0], name=name) for name in ("g0", "g1")]
        cfg_path = workspace["tmp"] / "two.json"
        cfg_path.write_text(json.dumps(cfg))
        stats = str(workspace["tmp"] / "two.cqb")
        plan = str(workspace["tmp"] / "two_plan.cqb")
        assert run("calibrate", "--config", str(cfg_path), "--out", stats) == 0
        assert run("solve", "--stats", stats, "--config", str(cfg_path),
                   "--out", plan) == 0
        assert rotation_calls == [(1, 7), (7, 8)]  # rank 1 of d=8, seed 7
        first, second = formats.read_plan(plan)
        assert np.array_equal(first.partition.r_l, second.partition.r_l)

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
        assert row["exact_error"] == rep.exact_error

    def test_bypass_near_zero_error(self, workspace):
        stats = str(workspace["tmp"] / "stats.cqb")
        plan_path = str(workspace["tmp"] / "plan.cqb")
        report = str(workspace["tmp"] / "rep.jsonl")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        run("solve", "--stats", stats, "--out", plan_path)
        run("simulate", "--plan", plan_path, "--x", workspace["x1"],
            "--w", workspace["w"], "--bypass", "--out", report)
        row = formats.read_report(report)[0]
        y = workspace["x1_arr"] @ workspace["w_arr"]
        assert row["exact_error"] <= 1e-12 * np.sum(y**2)


class TestAnalyze:
    def test_synthetic_weight_dominant(self, tmp_path):
        spec = weight_anisotropic_spec(16, 64, 8, seed=5)
        spec_path = str(tmp_path / "spec.json")
        Path(spec_path).write_text(json.dumps(spec.to_json()))
        report = str(tmp_path / "rep.jsonl")
        assert run("analyze", "--synthetic", spec_path, "--rank", "2",
                   "--out", report) == 0
        rows = formats.read_report(report)
        joint = next(r for r in rows if r["objective"] == "joint")
        assert joint["relative_reduction"] > 0.0

    def test_sweep_summary(self, tmp_path, capsys):
        spec = weight_anisotropic_spec(16, 64, 8, seed=0)
        spec_path = str(tmp_path / "spec.json")
        Path(spec_path).write_text(json.dumps(spec.to_json()))
        report = str(tmp_path / "rep.jsonl")
        assert run("analyze", "--synthetic", spec_path, "--rank", "2",
                   "--sweep", "5", "--out", report) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["instances"] == 5
        assert 0.0 <= summary["win_rate"] <= 1.0
        assert len(formats.read_report(report)) == 15

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
            assert rows[3 * k]["exact_error"] == joint.exact_error

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

    def test_missing_column_schema_error(self, tmp_path):
        a = self.make_report(tmp_path, "a.jsonl")
        bad = str(tmp_path / "bad.csv")
        Path(bad).write_text("group,objective\ng,joint\n")
        assert run("compare", a, bad) == 2


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
        assert formats.read_plan(p7)[0].seed == 7
        assert formats.read_plan(p9)[0].seed == 9

    def test_quant_config_field_exits_2(self, workspace):
        stats = str(workspace["tmp"] / "stats.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", stats)
        cfg_path = str(workspace["tmp"] / "quant.json")
        Path(cfg_path).write_text(json.dumps({"quant": {"bits": 4}}))
        assert run("solve", "--stats", stats, "--config", cfg_path,
                   "--out", str(workspace["tmp"] / "p.cqb")) == 2

    def test_bad_config_field_exits_2(self, workspace):
        cfg_path = str(workspace["tmp"] / "weird.json")
        Path(cfg_path).write_text(json.dumps({"groups": [], "bogus_field": 1}))
        assert run("calibrate", "--config", cfg_path,
                   "--out", str(workspace["tmp"] / "s.cqb")) == 2
