"""One repetition of one workload, in a fresh interpreter.

Run as ``python3 -m perfbench.rep --workload NAME --seed N --trace 0|1`` from
the repository root (``perfbench/run.py`` does this).  It times set-up and
reproduction in process, grades the output, and prints one JSON object as the
last line of standard output.  With ``--trace 1`` it also records spans and
writes them to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, layers  # noqa: E402
from perfbench.spans import Probe, Tracer, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def layer_metrics(spans, counts: Counter, wall_s: float) -> dict:
    """Per-layer self times and counts of one traced repetition."""
    totals = self_times(spans)
    metrics = {f"{layer}_s": totals.get(layer, 0.0) for layer in layers.TIMED_LAYERS}
    named = sum(metrics.values())
    # Layers outside TIMED_LAYERS (an ordering no workload uses today) stay
    # in the residual; wall_s already excludes the checks.
    metrics["experiments.glue_s"] = wall_s - named
    metrics["trace.coverage"] = named / wall_s
    for name, _, _ in layers.COUNTS:
        metrics[name] = float(counts.get(name, 0))
    targeted = counts.get("atpg.faults_targeted", 0)
    metrics["atpg.detected_frac"] = counts.get("atpg.detected", 0) / targeted if targeted else 0.0
    return metrics


def run(workload, seed: int, traced: bool) -> dict:
    """Set up, reproduce and grade ``workload`` once; hooks are removed after."""
    import numpy  # imported here so its cost stays out of the timed phases
    import repro.experiments.runner  # noqa: F401  (loads every layer before hooking)

    ledger = checks.Ledger()
    counts: Counter = Counter()
    tracer = Tracer() if traced else None
    check_s = [0.0]

    def on_check(seconds: float) -> None:
        check_s[0] += seconds

    probe = Probe(tracer, on_check)
    layers.install(probe, counts, ledger, traced)
    gc.collect()
    try:
        t0, c0, p0 = time.perf_counter(), check_s[0], time.process_time()
        built = workload.setup(seed)
        t1, c1, p1 = time.perf_counter(), check_s[0], time.process_time()
        output = workload.reproduce(built, seed, ledger)
        t2, c2, p2 = time.perf_counter(), check_s[0], time.process_time()
    finally:
        probe.restore()
    setup_s = (t1 - t0) - (c1 - c0)
    reproduce_s = (t2 - t1) - (c2 - c1)
    answer = workload.grade(output, ledger)
    result = {
        "seed": seed,
        "setup_s": setup_s,
        "reproduce_s": reproduce_s,
        "wall_s": setup_s + reproduce_s,
        "setup_cpu_s": (p1 - p0) - (c1 - c0),
        "reproduce_cpu_s": (p2 - p1) - (c2 - c1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "proposed": answer.proposed,
        "xstat": answer.xstat,
        "proposed_peak_power_uw": answer.proposed_peak_power_uw,
        "digest": checks.digest(answer.text),
        "dp_fill_results": counts["dp_fill.results"],
        "dp_fill_certified": counts["core.certified_optimal"],
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "numpy": numpy.__version__,
        "text": answer.text,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, counts, setup_s + reproduce_s)
        result["spans"] = tracer.dump()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default="", help="write the spans here (traced runs)")
    parser.add_argument("--text-out", default="", help="write the rendered tables here")
    args = parser.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, bool(args.trace))
    spans = result.pop("spans", None)
    text = result.pop("text")
    if args.spans_out and spans is not None:
        Path(args.spans_out).write_text(json.dumps(spans))
    if args.text_out:
        Path(args.text_out).write_text(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
