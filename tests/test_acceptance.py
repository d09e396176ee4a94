"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np

from reference import quantize_reference
from subquant import formats
from subquant.calib import CalibStats, ProjectionGroup
from subquant.cli import main as cli_main
from subquant.engine import analyze_layer, build_plan, execute_plan, stats_from_tensors
from subquant.linalg import sym_eig
from subquant.quantizer import quantize, relative_error_coeff
from subquant.solver import solve_partition, surrogate_objective
from subquant.synth import generate_instance, weight_anisotropic_spec


def ok(name):
    print(f"PASS {name}")


def random_stats(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    b = rng.standard_normal((d, d))
    return CalibStats(
        group=ProjectionGroup(kind="attn-input", dim=d, name=f"i{seed}"),
        sigma_x=a @ a.T, sigma_w=b @ b.T,
        energy_x=float(np.trace(a @ a.T)), energy_w=float(np.trace(b @ b.T)),
        tokens_seen=d)


def test_criterion_1_closed_form_optimality():
    """50 random PSD instances at d=8, r=2: the solver's surrogate objective
    dominates 10,000 random orthonormal candidates each, within 1e-8*||M||_F."""
    start = time.time()
    rng = np.random.default_rng(0)
    for i in range(50):
        stats = random_stats(8, seed=i)
        part = solve_partition(stats, rank=2, gamma_low=1.0, seed=i)
        m = part.lambda_x * stats.sigma_x + part.lambda_w * stats.sigma_w
        best = surrogate_objective(part, stats)
        cand = np.linalg.qr(rng.standard_normal((10_000, 8, 2)))[0]
        vals = np.einsum("kij,il,klj->k", cand, m, cand)
        assert best >= vals.max() - 1e-8 * np.linalg.norm(m)
    elapsed = time.time() - start
    assert elapsed < 60.0
    ok(f"criterion 1: closed-form optimality (50x10000 candidates, {elapsed:.1f}s)")


def test_criterion_2_orthogonality_reconstruction():
    """||UU^T - I||_max <= 1e-8 and rotated-basis matmul equivalence within
    1e-6 relative over 100 random instances up to d=64."""
    rng = np.random.default_rng(1)
    for i in range(100):
        d = int(rng.integers(2, 65))
        r = int(rng.integers(1, d))
        stats = random_stats(d, seed=1000 + i)
        part = solve_partition(stats, rank=r, gamma_low=1.0, seed=i)
        u = part.u
        assert np.max(np.abs(u @ u.T - np.eye(d))) <= 1e-8
        x = rng.standard_normal((8, d))
        w = rng.standard_normal((d, 6))
        y = x @ w
        assert np.linalg.norm(y - (x @ u) @ (u.T @ w)) <= \
            1e-6 * max(np.linalg.norm(y), 1e-30)
    ok("criterion 2: orthogonality and reconstruction (100 instances, d<=64)")


def test_criterion_3_quantizer_oracle_equivalence():
    """1,000 random tensors across bits {2,4,8} and both symmetries, each
    quantized by rows and through its transpose (per channel) in C and F
    order, match the scalar reference quantizer bit-for-bit; idempotence is
    exact."""
    rng = np.random.default_rng(2)
    configs = [(b, sym) for b in (2, 4, 8) for sym in (True, False)]
    count = 0
    while count < 1000:
        for bits, symmetric in configs:
            x = rng.standard_normal((5, 8)) * rng.uniform(1e-2, 1e2)
            for rows in (x, x.T):  # a token per row, then a channel per row
                ref = quantize_reference(rows, bits, symmetric)
                for order in ("C", "F"):
                    r1 = quantize(np.asarray(rows, order=order), bits, symmetric)
                    assert np.array_equal(r1.dequantized, ref[0])
                    assert np.array_equal(r1.scales, ref[1])
                    assert np.array_equal(r1.zero_points, ref[2])
                    r2 = quantize(r1.dequantized, bits, symmetric)
                    assert np.array_equal(r1.dequantized, r2.dequantized)
            count += 1
            if count >= 1000:
                break
    ok("criterion 3: quantizer matches scalar oracle bit-for-bit (1000 tensors)")


def test_criterion_4_degenerate_objective_equivalence():
    """Activation-only selection equals the top-r eigenvectors of Sigma_X
    (column-space match within 1e-7) on 20 random instances."""
    for i in range(20):
        d, r = 12, 3
        stats = random_stats(d, seed=2000 + i)
        part = solve_partition(stats, rank=r, objective="activation",
                               gamma_low=1.0, seed=i)
        top = sym_eig(stats.sigma_x).vectors[:, :r]
        overlap = np.linalg.svd(part.p_h.T @ top, compute_uv=False)
        assert np.all(np.abs(overlap - 1.0) < 1e-7)
    ok("criterion 4: activation-only equals top-r eigenvectors of Sigma_X")


def test_criterion_5_joint_selection_benefit():
    """100 weight-anisotropic instances (d=32, r=4, bits 4/8): joint beats
    activation-only in >= 90 and mean relative reduction > 0."""
    start = time.time()
    wins, reductions = 0, []
    for k in range(100):
        x, w = generate_instance(weight_anisotropic_spec(32, 256, 32, seed=k))
        joint, act, _ = analyze_layer(x, w, rank=4, bits_low=4, bits_high=8,
                                      seed=k)
        wins += joint.exact_error <= act.exact_error
        reductions.append(joint.relative_reduction)
    elapsed = time.time() - start
    assert wins >= 90
    assert np.mean(reductions) > 0.0
    assert elapsed < 300.0
    ok(f"criterion 5: joint wins {wins}/100, mean reduction "
       f"{np.mean(reductions):.3f} ({elapsed:.0f}s)")


def test_criterion_6_error_model_sanity():
    """Monte-Carlo exact error within a factor of 3 of the analytic model on
    Gaussian instances (n=4096, d=32, bits 4/8); coefficient values exact."""
    assert relative_error_coeff(4) == 1.0 / 49.0
    assert relative_error_coeff(8) == 1.0 / 16129.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4096, 32))
        w = rng.standard_normal((32, 32))
        plan = build_plan(stats_from_tensors(x, w), 4, 4, 8, seed=seed)
        _, rep = execute_plan(x, w, plan)
        ratio = rep.exact_error / rep.predicted_error
        assert 1.0 / 3.0 <= ratio <= 3.0
    ok("criterion 6: measured error within factor 3 of the model; "
       "coefficients 1/49 and 1/16129 exact")


def test_criterion_7_identity_shift_invariance():
    """Adding c*I to Sigma_W leaves the selected column space unchanged
    (principal angles < 1e-6) for c in {0.1, 1, 10} on 20 instances."""
    for i in range(20):
        stats = random_stats(10, seed=3000 + i)
        base = solve_partition(stats, rank=3, gamma_low=1.0, seed=i)
        for c in (0.1, 1.0, 10.0):
            shifted = dataclasses.replace(
                stats, sigma_w=stats.sigma_w + c * np.eye(10))
            part = solve_partition(shifted, rank=3, gamma_low=1.0, seed=i)
            cosines = np.linalg.svd(base.p_h.T @ part.p_h, compute_uv=False)
            angles = np.arccos(np.clip(cosines, -1.0, 1.0))
            assert np.max(angles) < 1e-6
    ok("criterion 7: identity-shift argmax invariance (c in {0.1, 1, 10})")


def test_criterion_8_end_to_end_determinism(tmp_path):
    """Scripted calibrate -> solve -> simulate with fixed seeds produces
    byte-identical files across two runs; format round-trips are lossless."""
    rng = np.random.default_rng(4)
    d = 16
    x = rng.standard_normal((64, d))
    w = rng.standard_normal((d, d))
    x_path, w_path = str(tmp_path / "x.cqt"), str(tmp_path / "w.cqt")
    formats.write_tensor(x_path, "x", x)
    formats.write_tensor(w_path, "w", w)
    cfg = {"groups": [{"name": "g0", "kind": "attn-input", "dim": d,
                       "activations": [x_path], "weights": [w_path]}],
           "seed": 11}
    cfg_path = str(tmp_path / "cfg.json")
    Path(cfg_path).write_text(json.dumps(cfg))

    outputs = []
    for run in ("a", "b"):
        stats = str(tmp_path / f"stats_{run}.cqb")
        plan = str(tmp_path / f"plan_{run}.cqb")
        report = str(tmp_path / f"report_{run}.jsonl")
        assert cli_main(["calibrate", "--config", cfg_path, "--out", stats]) == 0
        assert cli_main(["solve", "--stats", stats, "--config", cfg_path,
                         "--out", plan]) == 0
        assert cli_main(["simulate", "--plan", plan, "--x", x_path,
                         "--w", w_path, "--out", report]) == 0
        outputs.append(tuple(Path(p).read_bytes() for p in (stats, plan, report)))
    assert outputs[0] == outputs[1]

    # round-trips are lossless
    stats = formats.read_stats(str(tmp_path / "stats_a.cqb"))[0]
    assert np.array_equal(stats.sigma_x, x.T @ x)
    plan = formats.read_plan(str(tmp_path / "plan_a.cqb"))[0]
    y1, r1 = execute_plan(x, w, plan)
    formats.write_plan(str(tmp_path / "plan_c.cqb"), [plan])
    plan2 = formats.read_plan(str(tmp_path / "plan_c.cqb"))[0]
    y2, r2 = execute_plan(x, w, plan2)
    assert np.array_equal(y1, y2) and r1.exact_error == r2.exact_error
    ok("criterion 8: end-to-end determinism and lossless round-trips")
