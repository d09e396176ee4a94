import dataclasses
import json

import numpy as np
import pytest

from subquant import formats
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
    json.dump(cfg, open(cfg_path, "w"))
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
        json.dump(cfg, open(cfg_path, "w"))
        out = str(workspace["tmp"] / "stats.cqb")
        assert run("calibrate", "--config", cfg_path, "--out", out) == 2
        assert "g0" in capsys.readouterr().err

    def test_byte_identical_reruns(self, workspace):
        a = str(workspace["tmp"] / "a.cqb")
        b = str(workspace["tmp"] / "b.cqb")
        run("calibrate", "--config", workspace["cfg"], "--out", a)
        run("calibrate", "--config", workspace["cfg"], "--out", b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_unknown_kind_exits_2(self, workspace):
        cfg = {"groups": [{"name": "g", "kind": "bogus", "dim": 4}]}
        cfg_path = str(workspace["tmp"] / "bad.json")
        json.dump(cfg, open(cfg_path, "w"))
        assert run("calibrate", "--config", cfg_path,
                   "--out", str(workspace["tmp"] / "s.cqb")) == 2


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
        assert open(a, "rb").read() == open(plan_b, "rb").read()

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
        json.dump(spec.to_json(), open(spec_path, "w"))
        report = str(tmp_path / "rep.jsonl")
        assert run("analyze", "--synthetic", spec_path, "--rank", "2",
                   "--out", report) == 0
        rows = formats.read_report(report)
        joint = next(r for r in rows if r["objective"] == "joint")
        assert joint["relative_reduction"] > 0.0

    def test_sweep_summary(self, tmp_path, capsys):
        spec = weight_anisotropic_spec(16, 64, 8, seed=0)
        spec_path = str(tmp_path / "spec.json")
        json.dump(spec.to_json(), open(spec_path, "w"))
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
        json.dump(spec.to_json(), open(spec_path, "w"))
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
        json.dump(aligned_spec(8, 16, 4, seed=0).to_json(), open(spec_path, "w"))
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
        open(bad, "w").write("group,objective\ng,joint\n")
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
        json.dump({"quant": {"bits": 4}}, open(cfg_path, "w"))
        assert run("solve", "--stats", stats, "--config", cfg_path,
                   "--out", str(workspace["tmp"] / "p.cqb")) == 2

    def test_bad_config_field_exits_2(self, workspace):
        cfg_path = str(workspace["tmp"] / "weird.json")
        json.dump({"groups": [], "bogus_field": 1}, open(cfg_path, "w"))
        assert run("calibrate", "--config", cfg_path,
                   "--out", str(workspace["tmp"] / "s.cqb")) == 2
