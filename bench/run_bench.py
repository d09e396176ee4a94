#!/usr/bin/env python3
"""subquant benchmark.

    python3 bench/run_bench.py --workload {ablation,pipeline,wide} --seed N
                               --seconds S --trace {0,1}

Run from the root of a checkout. Each run sets the workload's inputs up
SETUP_RUNS times, each in a fresh process (`setup_s` is their median), then
runs the timed closed loop in another process and checks every op's outputs.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. The line before it
records provenance. Per-run records, and the span JSONL of a traced run, go
to `.bench_runs/<workload>-seed<N>-trace<T>/`.

Exit code 0 when a result was printed, 1 when the run failed, 2 on bad
arguments or when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from tracer import per_layer, read_jsonl

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
SETUP_RUNS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunFailed(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """One client with at most nproc BLAS threads."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def child(argv: list[str], deadline: float) -> None:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunFailed("out of time before " + argv[0])
    try:
        # children's stdout goes to stderr: the last stdout line is the result
        proc = subprocess.run([sys.executable, WORKER, *argv], cwd=ROOT,
                              env=child_env(), stdout=sys.stderr, timeout=left)
    except subprocess.TimeoutExpired as e:
        raise RunFailed(f"worker {argv[0]} exceeded the run deadline") from e
    if proc.returncode != 0:
        raise RunFailed(f"worker {argv[0]} exited with {proc.returncode}")


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "subquant")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _command(argv: list[str]):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance(args, worker: dict, manifest) -> dict:
    l3 = _command(["getconf", "LEVEL3_CACHE_SIZE"])
    commit = (_command(["git", "rev-parse", "HEAD"])
              if os.path.exists(os.path.join(ROOT, ".git")) else None)
    return {
        "git_commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": worker["numpy"]["version"],
        "blas": worker["numpy"]["blas"],
        "threads": {var: child_env()[var] for var in THREAD_VARS},
        "nproc": nproc(),
        "l3_bytes": int(l3) if l3 and l3.isdigit() else None,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "profile": args.profile,
        "inputs": manifest,
    }


def end_to_end(setup_times: list[float], worker: dict) -> dict[str, float]:
    plain = worker["plain"]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": plain["completed"] / plain["seconds"],
        "peak_rss_mb": worker["peak_rss_mb"],
        "rel_error": worker["quality"]["rel_error"],
        "joint_gain": worker["quality"]["joint_gain"],
    }


def run(args, spec: dict) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(ROOT, ".bench_runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    inputs = os.path.join(run_dir, "inputs")
    shutil.rmtree(run_dir, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--inputs", inputs, "--trace", str(args.trace),
              "--profile", args.profile]
    try:
        setup_times = []
        for rep in range(SETUP_RUNS):
            shutil.rmtree(inputs, ignore_errors=True)
            os.makedirs(inputs)
            t0 = time.perf_counter()
            child(["setup", *common, "--out", os.path.join(run_dir, "setup.json"),
                   "--spans", os.path.join(run_dir, f"setup{rep}.spans.jsonl")],
                  deadline)
            setup_times.append(time.perf_counter() - t0)
        with open(os.path.join(run_dir, "setup.json"), encoding="utf-8") as f:
            manifest = json.load(f)["manifest"]
        ops_out = os.path.join(run_dir, "ops.json")
        child(["ops", *common, "--out", ops_out, "--seconds", str(args.seconds),
               "--spans", os.path.join(run_dir, "ops.spans.jsonl")], deadline)
        with open(ops_out, encoding="utf-8") as f:
            worker = json.load(f)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    passes = [worker["plain"]] + ([worker["traced"]] if args.trace else [])
    extra = worker.get("extra", {"attempted": 0, "failed": 0, "errors": []})
    attempted = sum(p["attempted"] for p in passes) + extra["attempted"]
    failed = sum(p["failed"] for p in passes) + extra["failed"]
    if args.trace:
        setup_spans = [read_jsonl(os.path.join(run_dir, f"setup{rep}.spans.jsonl"))
                       for rep in range(SETUP_RUNS)]
        spans = read_jsonl(os.path.join(run_dir, "ops.spans.jsonl"))
        with open(os.path.join(run_dir, "spans.jsonl"), "w", encoding="utf-8") as f:
            for rep, run_spans in enumerate(setup_spans):
                for s in run_spans:
                    f.write(json.dumps({**s, "op": f"setup{rep}"}, sort_keys=True) + "\n")
            for s in spans:
                f.write(json.dumps(s, sort_keys=True) + "\n")
        values = per_layer(spans, worker["plain"], worker["traced"], setup_spans)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(setup_times, worker)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"provenance": provenance(args, worker, manifest), "result": result,
              "setup_times": setup_times, "passes": passes, "extra": extra,
              "missing_boundaries": worker.get("missing_boundaries", [])}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the self-test")
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(SRC, "subquant", "__init__.py")):
        print(f"bench: no program to measure: {SRC}/subquant is missing",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"bench: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    try:
        result, record = run(args, spec)
    except RunFailed as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    for err in [e for p in record["passes"] for e in p["errors"]] + record["extra"]["errors"]:
        print(f"bench: failed op: {err}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
