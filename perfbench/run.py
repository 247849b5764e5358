"""Pipeline benchmark of the DP-fill reproduction: one workload, one seed, one result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-default --seed 0 --seconds 30 --trace 0

A run is made of passes and stops at the pass boundary nearest to
``--seconds``.  A pass runs every workload seed of the run once.  Each
repetition is a fresh interpreter (``python3 -m perfbench.rep``) with its
own empty cube-cache directory, BLAS/OpenMP pinned to one thread, the
``packed`` backend, ``jobs=1`` and telemetry off.  With ``--trace 1`` every seed runs untraced
and then traced, and the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(settings, every sample) goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.layers import per_layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench_work"
DIGESTS = WORK / "digests.json"
#: Every run must end within this many seconds; a repetition gets what is left.
RUN_LIMIT_S = 170.0
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
PROGRAM_SETTINGS = {"REPRO_BACKEND": "packed", "REPRO_JOBS": "1"}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("reproduce_s", "s"),
    ("peak_rss_mb", "MB"),
    ("proposed_peak_toggles", "count"),
    ("proposed_peak_power_uw", "uW"),
    ("proposed_over_xstat", "ratio"),
    ("certified_optimal_frac", "frac"),
    ("ops_ok_frac", "frac"),
]


class BenchError(RuntimeError):
    """A repetition could not run or produced no result."""


def pass_seeds(workload, run_seed: int) -> List[int]:
    """Workload seeds of one pass: ``seeds_per_pass`` consecutive seeds."""
    return [run_seed * 100 + j for j in range(workload.seeds_per_pass)]


def rep_env(workload, cache_dir: Path) -> Dict[str, str]:
    """Environment of one repetition: no inherited ``REPRO_*`` knob leaks in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_THREADS)
    env.update(PROGRAM_SETTINGS)
    env.update(workload.env)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_rep(workload, seed: int, traced: bool, deadline: float, index: int) -> dict:
    """Run one repetition in a fresh interpreter and return its JSON result."""
    cache_dir = WORK / "cache" / f"{os.getpid()}-{index}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    command = [sys.executable, "-m", "perfbench.rep", "--workload", workload.name, "--seed", str(seed)]
    if traced:
        spans = WORK / "spans" / f"{workload.name}-seed{seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        command += ["--trace", "1", "--spans-out", str(spans)]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=rep_env(workload, cache_dir),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition seed {seed} ran out of time") from exc
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = "\n".join(done.stderr.strip().splitlines()[-15:])
        raise BenchError(f"repetition seed {seed} exited {done.returncode}:\n{tail}")
    return json.loads(lines[-1])


def source_digest() -> str:
    """Digest of every file under ``src/``, to identify the measured program."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() or "none"


def end_to_end(first_pass: List[dict], samples: List[dict], ops_ok_frac: float) -> Dict[str, float]:
    """End-to-end metrics: medians of timings, answers over the first pass."""
    proposed = sum(s["proposed"] for s in first_pass)
    xstat = sum(s["xstat"] for s in first_pass)
    dp_results = sum(s["dp_fill_results"] for s in samples)
    return {
        "wall_s": median(s["wall_s"] for s in samples),
        "setup_s": median(s["setup_s"] for s in samples),
        "reproduce_s": median(s["reproduce_s"] for s in samples),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in samples),
        "proposed_peak_toggles": proposed / len(first_pass),
        "proposed_peak_power_uw": sum(s["proposed_peak_power_uw"] for s in first_pass) / len(first_pass),
        "proposed_over_xstat": proposed / xstat if xstat else 0.0,
        "certified_optimal_frac": (
            sum(s["dp_fill_certified"] for s in samples) / dp_results if dp_results else 0.0
        ),
        "ops_ok_frac": ops_ok_frac,
    }


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced repetitions."""
    metrics = {}
    for name, _, _ in per_layer_metrics():
        if name != "trace.overhead_s":
            metrics[name] = median(s["layers"][name] for s in traced)
    metrics["trace.overhead_s"] = median(s["wall_s"] for s in traced) - median(
        s["wall_s"] for s in untraced
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running repetition instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    started = time.monotonic()
    seeds = pass_seeds(workload, args.seed)
    untraced: List[dict] = []
    traced: List[dict] = []
    # Digests persist across runs, so a rerun of a seed must render the same tables.
    digests: Dict[str, str] = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    attempted = failed = 0
    problems: List[str] = []
    pass_s = 0.0
    try:
        # Passes continue while the next one would end nearer to --seconds
        # than stopping now does, and always fit the run limit.
        while not untraced or (
            time.monotonic() - started + pass_s / 2 < args.seconds
            and time.monotonic() - started + pass_s < RUN_LIMIT_S
        ):
            pass_started = time.monotonic()
            for seed in seeds:
                kinds = (False, True) if args.trace else (False,)
                for with_spans in kinds:
                    sample = run_rep(workload, seed, with_spans, deadline, len(untraced) + len(traced))
                    (traced if with_spans else untraced).append(sample)
                    attempted += sample["attempted"] + 1
                    failed += sample["failed"]
                    problems += sample["problems"]
                    expected = workload.reference_digests.get(seed) or digests.setdefault(
                        f"{workload.name}/{seed}", sample["digest"]
                    )
                    if sample["digest"] != expected:
                        failed += 1
                        problems.append(f"seed {seed}: tables digest {sample['digest'][:12]} != {expected[:12]}")
            pass_s = time.monotonic() - pass_started
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True))
    if args.trace:
        metrics = per_layer(traced, untraced)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        metrics = end_to_end(untraced[: len(seeds)], untraced, 1.0 - failed / attempted)
        units = dict(END_TO_END)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "workload_seeds": seeds,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": untraced[0]["numpy"],
        "settings": {**PINNED_THREADS, **PROGRAM_SETTINGS, **workload.env, "obs": "off"},
        "problems": problems,
        "metrics": metrics,
        "samples": untraced + traced,
    }
    results = WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1))
    for problem in problems[:10]:
        print(f"problem: {problem}")
    print(
        f"{workload.name} seed {args.seed}: {len(untraced)} untraced + {len(traced)} traced "
        f"repetitions in {time.monotonic() - started:.1f} s; record in {results.relative_to(ROOT)}"
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
