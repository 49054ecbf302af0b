"""One measured process of the benchmark; started by run.py, never by hand.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --mode setup|run [--smoke]

``--mode setup`` imports pathtiles, builds the workload's inputs and reports
the monotonic clock reading at which the first op would start.  ``--mode
run`` then runs whole passes over the instance list in a closed loop for
``--seconds``: at least one pass, and none that would end after the time is
up.  With ``--trace 1`` the first half of the time runs untraced and the
second half traced.  Each op's output is checked after its pass, outside the
timed spans.  The last stdout line is one JSON object that run.py turns into
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import pathtiles
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _check_checkout_package():
    src = (ROOT / "src").resolve()
    if src not in Path(pathtiles.__file__).resolve().parents:
        raise SystemExit(f"error: imported pathtiles from {pathtiles.__file__}, not from {src}")


def run_phase(workload, seconds: float, tracer=None) -> list[dict]:
    """Run whole passes for `seconds`: at least one, and no pass that would
    end (at the median pass duration so far) after the phase is over."""
    passes = []
    durations = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        if tracer is not None:
            tracer.active = True
        try:
            result = workload.run_pass(tracer)
        finally:
            if tracer is not None:
                tracer.active = False
                tracer.collect_budgets()
                tracer.compact()
        errors = workload.check(result)
        digest = hashlib.md5()
        for text in map(workloads.canonical, result.outputs):
            digest.update(text.encode())
            digest.update(b"\n")
        passes.append({
            "wall": result.wall,
            "latencies": result.latencies,
            "errors": [e for e in errors if e is not None],
            "failed": sum(e is not None for e in errors),
            "digest": digest.hexdigest(),
            "extra": result.extra,
        })
        now = time.perf_counter()
        durations.append(now - pass_start)
        if now - start + statistics.median(durations) > seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    _check_checkout_package()
    workload = workloads.build(args.workload, args.seed, args.smoke)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    doc: dict = {"ready": ready}
    phase = args.seconds / 2 if args.trace else args.seconds
    untraced = run_phase(workload, phase)
    doc["passes"] = untraced
    if args.trace:
        from tracer import PER_LAYER, Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, phase, tracer)
        finally:
            tracer.restore()
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        doc["spans_written"] = tracer.write_spans(span_file)
        doc["spans_dropped"] = tracer.spans_dropped
        doc["span_file"] = str(span_file.relative_to(ROOT))
        doc["traced_passes"] = traced
        overhead = statistics.median(p["wall"] for p in traced) - statistics.median(p["wall"] for p in untraced)
        doc["layers"] = layer_metrics(tracer, traced, overhead)
        doc["layer_units"] = dict(PER_LAYER)
    doc["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
