"""pathtiles benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

Run from the root of a checkout.  Workloads: verify-full, spp-qt, tiles,
oracles (see benchmarks/README.md).  Every measurement runs in a fresh
worker process (benchmarks/worker.py) that imports pathtiles from ./src, with
TILING_REFLECT_BUDGET removed and PYTHONHASHSEED fixed.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics; with ``--trace 1`` they are the per-layer metrics of
a traced run.  The lines before it give the same numbers for people, with
the op count, the percentile used for op_tail_ms and the md5 digest of the
outputs.  ``--smoke`` runs every workload once at its smallest size and
exits non-zero if a metric is missing, an op fails or the digest of two runs
differs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify-full", "spp-qt", "tiles", "oracles")
END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_LAUNCHES = 9  # setup_s is the median over these launches and the measured run
DEADLINE_S = 170.0  # every run ends well inside 180 s
HASH_SEED = "0"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("TILING_REFLECT_BUDGET", None)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Start one worker; returns its JSON report and the launch time."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before starting a worker")
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing")
    return json.loads(lines[-1]), launched


def tail_percentile(latencies: list[float]) -> tuple[int, float]:
    """Highest whole percentile (nearest rank) with at least 10 ops above it."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 50, xs[math.ceil(n / 2) - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    if smoke:
        common.append("--smoke")
    setup = ["--mode", "setup", "--seconds", "0", *common]
    run_worker(setup, deadline)  # fills the bytecode caches; not measured
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        doc, launched = run_worker(setup, deadline)
        setups.append(doc["ready"] - launched)
    doc, launched = run_worker(
        ["--mode", "run", "--seconds", str(seconds), "--trace", str(int(trace)), *common], deadline
    )
    setups.append(doc["ready"] - launched)

    passes = doc["passes"] + doc.get("traced_passes", [])
    digest = passes[0]["digest"]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = 0
    errors = []
    for p in passes:
        if p["digest"] != digest:
            failed += len(p["latencies"])
            errors.append(f"digest {p['digest']} of a later pass differs from {digest}")
        else:
            failed += p["failed"]
            errors += p["errors"]
    untraced = doc["passes"]
    latencies = [x for p in untraced for x in p["latencies"]]
    pct, tail = tail_percentile(latencies)
    return {
        "workload": workload,
        "seed": seed,
        "passes": len(untraced),
        "ops_per_pass": len(untraced[0]["latencies"]),
        "digest": digest,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "tail_percentile": pct,
        "metrics": {
            "wall_s": statistics.median(p["wall"] for p in untraced),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * tail,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": doc["rss_kb"] / 1024,
        },
        "layers": doc.get("layers"),
        "layer_units": doc.get("layer_units"),
        "span_file": doc.get("span_file"),
    }


def report(res: dict, trace: bool) -> dict:
    """Print the human-readable lines; returns the metrics of the JSON line."""
    ops = res["passes"] * res["ops_per_pass"]
    print(f"workload {res['workload']} seed {res['seed']}: {res['passes']} untraced passes x "
          f"{res['ops_per_pass']} ops = {ops} ops, closed loop, 1 process")
    print(f"  digest md5 {res['digest']}")
    units = dict(END_TO_END)
    m = res["metrics"]
    notes = {
        "wall_s": f"median of {res['passes']} passes",
        "op_p50_ms": f"median of {ops} ops",
        "op_tail_ms": f"p{res['tail_percentile']} of {ops} ops",
        "setup_s": f"median of {SETUP_LAUNCHES} launches",
        "peak_rss_mb": "ru_maxrss of the run process",
    }
    for name, _unit in END_TO_END:
        print(f"  {name:<12} {m[name]:.6g} {units[name]}  ({notes[name]})")
    rate = res["failed"] / res["attempted"]
    print(f"  {'fail_rate':<12} {rate:.6g} ratio  ({res['failed']} of {res['attempted']} ops)")
    for err in res["errors"][:5]:
        print(f"  FAILED: {err}")
    if not trace:
        return {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END}
    layers, layer_units = res["layers"], res["layer_units"]
    print(f"  per-layer metrics, per traced pass (spans in {res['span_file']}):")
    for name, value in layers.items():
        print(f"    {name:<34} {value:.6g} {layer_units[name]}")
    return {name: {"value": value, "unit": layer_units[name]} for name, value in layers.items()}


def smoke() -> int:
    """Run each workload once at its smallest size and check the output."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        first = measure(workload, 1, 0, trace=False, smoke=True)
        second = measure(workload, 1, 0, trace=False, smoke=True)
        traced = measure(workload, 1, 0, trace=True, smoke=True)
        e2e = report(first, trace=False)
        layers = report(traced, trace=True)
        for name, unit in want_e2e.items():
            if e2e.get(name, {}).get("unit") != unit:
                problems.append(f"{workload}: end-to-end metric {name} [{unit}] missing")
        for name, unit in want_layers.items():
            if layers.get(name, {}).get("unit") != unit:
                problems.append(f"{workload}: per-layer metric {name} [{unit}] missing")
        for res in (first, second, traced):
            if res["failed"]:
                problems.append(f"{workload}: fail_rate {res['failed']}/{res['attempted']}: {res['errors'][:1]}")
        if first["digest"] != second["digest"] or first["digest"] != traced["digest"]:
            problems.append(f"{workload}: digests differ between runs")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke: " + ("FAILED" if problems else f"ok, {len(WORKLOADS)} workloads"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test every workload at its smallest size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pathtiles" / "__init__.py").is_file():
        print(f"error: no pathtiles sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = report(res, bool(args.trace))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
