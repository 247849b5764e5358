"""Shared task/merge protocol for distributed simulation work units.

Everything a worker needs to execute one unit of simulation work — and
everything a parent needs to plan, encode and deterministically merge those
units — lives here, in one module consumed by every cluster transport
(:mod:`repro.cluster.transport`).
The three work-unit kinds:

* ``"simulate"`` — grade a chunk of faults over a pattern range on the
  compiled program (fault-list chunks and pattern-block shards both encode
  to this kind; they differ only in the slice they carry).
* ``"podem"`` — run compiled ternary PODEM on a chunk of fault sites.
* ``"cell"`` — one experiment-runner (artifact x benchmark) cell.

Tasks are plain picklable dicts with a ``"kind"`` key; :func:`execute_task`
is the single dispatch point every transport calls, so a task produces the
same payload whether it runs in the parent process or in a spawn-pool
worker.

**Determinism.**  Per-task results are pure functions of the task dict, and
the merges are order-independent: fault chunks are disjoint (scatter),
pattern shards min-merge first-detect indices (:func:`min_merge`), PODEM
results are consumed strictly in fault-list order, and runner cells merge in
fixed cell order.  Duplicate delivery of a task is therefore harmless — the
re-executed task returns identical bytes and the merge is idempotent — and
the ``REPRO_SANITIZE`` shadow replay checks the order independence at run
time.

**Adaptive chunk sizing.**  Fault cones differ wildly in size, so equal-count
fault chunks load-balance poorly.  :class:`AdaptiveChunker` sizes each
subsequent chunk from the per-chunk ``cone_evaluations`` counters the
completed chunks report, targeting a constant amount of *work* (not fault
count) per task; the static equal-count plan remains available as a forced
fallback (``REPRO_CHUNK_PLAN=static``).  Chunk boundaries never affect
results — only scheduling.
"""

from __future__ import annotations

import pickle
import uuid
import weakref
from collections import OrderedDict
from hashlib import blake2b
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import envvars
from repro.engine.compile import CompiledCircuit
from repro.engine.fault import (
    _new_stats,
    packed_first_detects,
    packed_first_detects_faults,
    packed_first_detects_words,
)
from repro.engine.packed import (
    evaluate_lanes,
    evaluate_words,
    pack_lanes,
    pack_patterns,
)
from repro.engine.ternary import CompiledTernaryPodem, RawPodemResult
from repro.obs import recorder as obs

#: Target number of work chunks per worker; >1 gives the pool slack to
#: load-balance chunks whose cones differ wildly in size.
CHUNKS_PER_WORKER = 4

#: Key under which a task's captured telemetry snapshot rides in the result
#: payload envelope (see :func:`execute_task` / :func:`unwrap_payload`).
OBS_PAYLOAD_KEY = "__repro_obs__"

#: Never make a fault chunk smaller than this (per-task overhead floor).
MIN_CHUNK_FAULTS = 8

#: Per-chunk stats counters merged back into the parent's ``last_run_stats``.
CHUNK_STAT_KEYS = (
    "blocks",
    "cone_evaluations",
    "dropped_block_evaluations",
    "fault_words",
)

#: Environment variable forcing the fault-chunk plan (``adaptive``/``static``).
CHUNK_PLAN_ENV_VAR = envvars.CHUNK_PLAN.name

CHUNK_PLANS = envvars.CHUNK_PLANS

_in_worker_context = 0


def resolve_chunk_plan(plan: Optional[str] = None) -> str:
    """Resolve the fault-chunk planning mode (arg > env > ``adaptive``).

    Raises:
        ValueError: for names outside :data:`CHUNK_PLANS`.
    """
    if plan is None:
        plan = envvars.CHUNK_PLAN.read() or "adaptive"
    if plan not in CHUNK_PLANS:
        raise ValueError(f"unknown chunk plan {plan!r}; choose from {CHUNK_PLANS}")
    return plan


def in_worker_context() -> bool:
    """Whether this code is already running inside some task executor.

    True in spawn-pool workers (detected via ``multiprocessing``) and while
    the parent itself is executing a task inline (local transport).  Work
    scheduled from such a context must run inline — executors never nest.
    """
    if _in_worker_context > 0:
        return True
    import multiprocessing

    return multiprocessing.parent_process() is not None


class worker_context:
    """Context manager marking in-process task execution (re-entrant)."""

    def __enter__(self) -> "worker_context":
        global _in_worker_context
        _in_worker_context += 1
        return self

    def __exit__(self, *exc) -> None:
        global _in_worker_context
        _in_worker_context -= 1


# -- program shipping --------------------------------------------------------
#: id(program) -> (weakref, key, pickled bytes); pickling a compiled program
#: happens once per program, the bytes ride along with every chunk task and
#: workers unpickle once per (worker, key).
_blob_cache: Dict[int, Tuple["weakref.ref", str, bytes]] = {}


def pickled_program(program: CompiledCircuit) -> Tuple[str, bytes]:
    """``(key, blob)`` for shipping ``program`` to workers (memoised)."""
    ident = id(program)
    entry = _blob_cache.get(ident)
    if entry is not None:
        ref, key, blob = entry
        if ref() is program:
            return key, blob
    # repro: allow[R1] the key is a worker-cache identity for this process's
    # program blob, used for dedup only — it never reaches result payloads.
    key = f"{program.name}:{uuid.uuid4().hex}"
    blob = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
    _blob_cache[ident] = (
        weakref.ref(program, lambda _ref, _ident=ident: _blob_cache.pop(_ident, None)),
        key,
        blob,
    )
    return key, blob


# -- worker-side caches ------------------------------------------------------
_WORKER_CACHE_LIMIT = 8
_worker_programs: "OrderedDict[str, CompiledCircuit]" = OrderedDict()
#: (program_key, patterns_key, fault_mode) -> good-machine lanes or word table.
_worker_good: "OrderedDict[Tuple[str, str, str], object]" = OrderedDict()
#: (program_key, backtrack_limit) -> reusable per-worker ternary PODEM engine.
_worker_podem: "OrderedDict[Tuple[str, int], CompiledTernaryPodem]" = OrderedDict()


def _cache_put(cache: OrderedDict, key, value) -> None:
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > _WORKER_CACHE_LIMIT:
        cache.popitem(last=False)


def _worker_program(key: str, blob: bytes) -> CompiledCircuit:
    program = _worker_programs.get(key)
    if program is None:
        program = pickle.loads(blob)
        _cache_put(_worker_programs, key, program)
    return program


def _worker_good_machine(
    program: CompiledCircuit,
    task: Dict[str, object],
) -> object:
    """The cached good machine for a task: big-int lanes or a uint64 table."""
    fault_mode = task["fault_mode"]
    cache_key = (task["program_key"], task["patterns_key"], fault_mode)
    good = _worker_good.get(cache_key)
    if good is None:
        n_patterns = task["n_patterns"]
        with obs.span(f"logic_sim/{program.name}/{fault_mode}"):
            if fault_mode == "words":
                good = evaluate_words(program, task["input_words"], n_patterns)
            else:
                mask = (1 << n_patterns) - 1
                good = evaluate_lanes(program, list(task["input_lanes"]), mask)
        _cache_put(_worker_good, cache_key, good)
    return good


# -- task encoding -----------------------------------------------------------
def simulate_base_task(
    program: CompiledCircuit,
    matrix: np.ndarray,
    n_patterns: int,
    fault_kernel: str,
    block_patterns: int,
    drop_detected: bool,
) -> Dict[str, object]:
    """The per-run invariants every ``"simulate"`` chunk task shares.

    ``fault_kernel`` is the *resolved* grading kernel (``"lanes"`` /
    ``"words"`` / ``"faults"``, never ``"auto"``): the parent resolves it
    once from the full run shape and every chunk grades on it, so chunking
    never changes the kernel.  The packed inputs ship in whichever
    representation that kernel reads (the word table for ``words``, big-int
    lanes otherwise); every chunk of one run reuses a single cached good
    machine per worker either way.
    """
    patterns_key = blake2b(
        matrix.tobytes() + repr(matrix.shape).encode(), digest_size=16
    ).hexdigest()
    program_key, program_blob = pickled_program(program)
    base: Dict[str, object] = {
        "kind": "simulate",
        "program_key": program_key,
        "program_blob": program_blob,
        "patterns_key": patterns_key,
        "fault_mode": fault_kernel,
        "n_patterns": n_patterns,
        "block_patterns": block_patterns,
        "drop_detected": drop_detected,
    }
    if fault_kernel == "words":
        base["input_words"] = pack_patterns(matrix)
    else:
        base["input_lanes"] = pack_lanes(matrix)
    if obs.enabled():
        # Ask workers to capture telemetry even if they were spawned before
        # tracing was enabled programmatically (REPRO_TRACE propagates via
        # the environment; obs.enable() does not).
        base["obs"] = True
        if obs.timeline_enabled():
            base["timeline"] = True
    return base


def simulate_task(
    base_task: Dict[str, object],
    sites: Sequence[int],
    stuck_values: Sequence[int],
    pattern_start: int,
    pattern_stop: int,
) -> Dict[str, object]:
    """Encode one fault-chunk / pattern-shard grading task."""
    return dict(
        base_task,
        sites=list(sites),
        stuck_values=list(stuck_values),
        pattern_start=pattern_start,
        pattern_stop=pattern_stop,
    )


def podem_base_task(
    program: CompiledCircuit, backtrack_limit: int
) -> Dict[str, object]:
    """The per-run invariants every ``"podem"`` chunk task shares."""
    program_key, program_blob = pickled_program(program)
    base: Dict[str, object] = {
        "kind": "podem",
        "program_key": program_key,
        "program_blob": program_blob,
        "backtrack_limit": backtrack_limit,
    }
    if obs.enabled():
        base["obs"] = True
        if obs.timeline_enabled():
            base["timeline"] = True
    return base


def podem_task(
    base_task: Dict[str, object],
    sites: Sequence[int],
    stuck_values: Sequence[int],
) -> Dict[str, object]:
    """Encode one PODEM fault-chunk task."""
    return dict(base_task, sites=list(sites), stuck_values=list(stuck_values))


def cell_task(cell, seed: int, backend_name: str) -> Dict[str, object]:
    """Encode one experiment-runner cell task."""
    task: Dict[str, object] = {
        "kind": "cell",
        "cell": cell,
        "seed": seed,
        "backend": backend_name,
    }
    if obs.enabled():
        task["obs"] = True
        if obs.timeline_enabled():
            task["timeline"] = True
    return task


# -- task execution ----------------------------------------------------------
def simulate_chunk(task: Dict[str, object]) -> Tuple[List[Optional[int]], Dict[str, int]]:
    """Execute a ``"simulate"`` task: grade faults over one pattern range."""
    program = _worker_program(task["program_key"], task["program_blob"])
    good = _worker_good_machine(program, task)
    stats = _new_stats()
    first_detects = {
        "words": packed_first_detects_words,
        "faults": packed_first_detects_faults,
    }.get(task["fault_mode"], packed_first_detects)
    with obs.span(f"fault_sim/{program.name}/{task['fault_mode']}/grade"):
        first = first_detects(
            program,
            good,
            task["n_patterns"],
            task["sites"],
            task["stuck_values"],
            block_patterns=task["block_patterns"],
            drop_detected=task["drop_detected"],
            pattern_start=task["pattern_start"],
            pattern_stop=task["pattern_stop"],
            stats=stats,
        )
    # Kernel counters flush per chunk into the task's captured snapshot
    # (the parent absorbs snapshots deduped by task id); the parent-side
    # simulators flush only result-level counters, so nothing double-counts.
    obs.add_counters(stats, prefix="fault_sim.")
    return first, stats


def podem_chunk(task: Dict[str, object]) -> List[RawPodemResult]:
    """Execute a ``"podem"`` task: compiled PODEM on one chunk of fault sites.

    The engine is cached per (program, backtrack limit); every ``run`` call
    rebuilds its per-fault state from the cached all-X baseline, so results
    are independent of how faults are chunked across workers.
    """
    program = _worker_program(task["program_key"], task["program_blob"])
    key = (task["program_key"], task["backtrack_limit"])
    engine = _worker_podem.get(key)
    if engine is None:
        engine = CompiledTernaryPodem(program, backtrack_limit=task["backtrack_limit"])
        _cache_put(_worker_podem, key, engine)
    with obs.span(f"atpg/{program.name}/podem_chunk"):
        return [
            engine.run(site, stuck)
            for site, stuck in zip(task["sites"], task["stuck_values"])
        ]


def run_cell(task: Dict[str, object]):
    """Execute a ``"cell"`` task: one experiment-runner cell.

    Imported lazily — the runner sits above the engine layer, and pulling it
    in at module import would create a cycle.
    """
    from repro.engine.backend import default_backend_name, set_default_backend
    from repro.experiments.runner import _run_cell

    backend_name = task["backend"]
    if default_backend_name() != backend_name:
        set_default_backend(backend_name)
    return _run_cell(task["cell"], task["seed"])


def echo(task: Dict[str, object]) -> object:
    """Execute an ``"echo"`` task: return its payload (diagnostics/tests).

    ``fail`` makes the task raise instead — a worker-side failure on demand
    for exercising the inline fallbacks.
    """
    if task.get("fail"):
        raise RuntimeError(f"echo task failed on request: {task['fail']}")
    return task.get("payload")


_EXECUTORS = {
    "simulate": simulate_chunk,
    "podem": podem_chunk,
    "cell": run_cell,
    "echo": echo,
}


def execute_task(task: Dict[str, object]):
    """Run one work unit; the single entry point every transport dispatches to.

    When telemetry is on — in this process (``obs.enabled()``) or requested
    by the submitting parent (the task's ``"obs"`` flag) — execution runs
    inside :class:`repro.obs.recorder.task_capture` and the captured
    counters/spans/events ride back with the result in an envelope dict
    (:data:`OBS_PAYLOAD_KEY`).  Transports strip the envelope with
    :func:`unwrap_payload`, which also merges the snapshot into the parent
    recorder exactly once per task id.
    """
    try:
        runner = _EXECUTORS[task["kind"]]
    except KeyError:
        raise ValueError(f"unknown task kind {task.get('kind')!r}") from None
    if not (task.get("obs") or obs.enabled()):
        return runner(task)
    # The submitting parent's timeline request rides the task dict (like the
    # "obs" flag); otherwise the capture inherits the local recorder's tier.
    capture = obs.task_capture(timeline=True if task.get("timeline") else None)
    with capture:
        payload = runner(task)
    return {OBS_PAYLOAD_KEY: capture.snapshot(), "payload": payload}


def unwrap_payload(task_id: object, payload: object) -> object:
    """Strip a telemetry envelope from one result payload.

    Absorbs the captured snapshot into the active recorder — deduped by
    task id, so a re-delivered result can never double-count — and returns
    the bare payload.  Payloads without an envelope (tracing off) pass
    through untouched; envelopes from tracing-enabled workers are stripped
    even when the parent traces nothing (the null recorder drops the
    snapshot).
    """
    if isinstance(payload, dict) and OBS_PAYLOAD_KEY in payload:
        obs.absorb_task(task_id, payload[OBS_PAYLOAD_KEY])
        return payload["payload"]
    return payload


# -- planning ----------------------------------------------------------------
def plan_chunks(
    jobs: int,
    n_faults: int,
    n_patterns: int,
    block_patterns: int,
    chunks_per_worker: int = CHUNKS_PER_WORKER,
    min_chunk_faults: int = MIN_CHUNK_FAULTS,
) -> Optional[Tuple[str, List[Tuple[int, int]]]]:
    """Pick a sharding strategy, or ``None`` when sharding cannot pay.

    Returns ``("fault-chunks", [(lo, hi), ...])`` — disjoint fault-index
    ranges, every chunk grading the full pattern set — or
    ``("pattern-shards", [(start, stop), ...])`` — block-aligned pattern
    ranges, every shard grading all faults — or ``None`` for inline runs.
    """
    max_chunks = jobs * chunks_per_worker
    n_blocks = -(-n_patterns // block_patterns)
    if n_faults < 2 * min_chunk_faults:
        # Too few faults to split the fault axis; shard pattern blocks
        # instead when there are enough of them to go around.
        if n_faults and n_blocks >= 4:
            n_shards = min(max_chunks, n_blocks)
            blocks_per_shard = -(-n_blocks // n_shards)
            step = blocks_per_shard * block_patterns
            shards = [
                (start, min(start + step, n_patterns))
                for start in range(0, n_patterns, step)
            ]
            if len(shards) > 1:
                return "pattern-shards", shards
        return None
    chunk = max(min_chunk_faults, -(-n_faults // max_chunks))
    chunks = [(lo, min(lo + chunk, n_faults)) for lo in range(0, n_faults, chunk)]
    if len(chunks) > 1:
        return "fault-chunks", chunks
    return None


class AdaptiveChunker:
    """Sizes successive fault chunks from observed per-fault cone cost.

    The first wave of chunks uses the static plan's equal-count size; once
    completed chunks report their ``cone_evaluations``, each next chunk is
    sized so its *estimated work* (faults x running mean cost per fault)
    matches the work of an average static chunk.  Cheap tails therefore get
    merged into fewer, larger tasks (less per-task overhead — fault dropping
    makes late chunks cheap) while unexpectedly heavy regions are split
    finer (better load balance).

    Chunk boundaries are a pure scheduling choice: fault chunks are disjoint
    and merge by scatter, so results are bit-identical for every sizing
    decision — which is also why feedback arriving in any order is fine.

    Args:
        n_faults: total fault count being chunked.
        initial_chunk: first-wave chunk size (the static plan's size).
        min_chunk: never go below this many faults per chunk.
        max_chunk: never go above this many faults per chunk (defaults to
            4x the initial size, bounding how coarse the tail can get).
    """

    def __init__(
        self,
        n_faults: int,
        initial_chunk: int,
        min_chunk: int = MIN_CHUNK_FAULTS,
        max_chunk: Optional[int] = None,
    ) -> None:
        self.n_faults = int(n_faults)
        self.initial_chunk = max(1, int(initial_chunk))
        self.min_chunk = max(1, int(min_chunk))
        self.max_chunk = (
            max(self.initial_chunk, int(max_chunk))
            if max_chunk is not None
            else 4 * self.initial_chunk
        )
        #: Work (cone evaluations) a static chunk would carry, re-estimated
        #: as feedback arrives; the target each adaptive chunk aims for.
        self._target_evals: Optional[float] = None
        self._seen_faults = 0
        self._seen_evals = 0
        self._cursor = 0

    @property
    def exhausted(self) -> bool:
        return self._cursor >= self.n_faults

    def record(self, n_faults_graded: int, cone_evaluations: int) -> None:
        """Feed back one completed chunk's size and measured work."""
        if n_faults_graded <= 0:
            return
        self._seen_faults += n_faults_graded
        self._seen_evals += max(0, int(cone_evaluations))
        if self._target_evals is None:
            # Anchor the per-chunk work target on the first measurement: the
            # work an average initial-size chunk carries.
            self._target_evals = (
                self._seen_evals / self._seen_faults
            ) * self.initial_chunk

    def _next_size(self) -> int:
        if self._target_evals is None or self._seen_evals <= 0:
            return self.initial_chunk
        mean_cost = self._seen_evals / self._seen_faults
        if mean_cost <= 0:
            return self.max_chunk
        size = int(round(self._target_evals / mean_cost))
        return max(self.min_chunk, min(self.max_chunk, size))

    def next_bounds(self) -> Optional[Tuple[int, int]]:
        """The next ``(lo, hi)`` fault range, or ``None`` when exhausted."""
        if self.exhausted:
            return None
        lo = self._cursor
        hi = min(self.n_faults, lo + self._next_size())
        # Don't leave a sub-minimum orphan tail behind.
        if self.n_faults - hi < self.min_chunk:
            hi = self.n_faults
        self._cursor = hi
        return lo, hi


# -- merging -----------------------------------------------------------------
def min_merge(
    first: List[Optional[int]],
    positions: Sequence[int],
    chunk_first: Sequence[Optional[int]],
) -> None:
    """Fold one chunk's first-detect indices into the merged vector.

    Taking the minimum detecting index per fault is commutative, associative
    and idempotent, so the merged result is independent of task arrival
    order and unaffected by duplicate deliveries — the properties the
    ``REPRO_SANITIZE`` shadow replay checks.  Fault-chunk results (disjoint
    positions) reduce to a plain scatter under the same operation.
    """
    for index, found in zip(positions, chunk_first):
        if found is not None and (first[index] is None or found < first[index]):
            first[index] = found


def merge_chunk_stats(stats: Dict[str, object], chunk_stats: Dict[str, int]) -> None:
    """Accumulate one chunk's work counters into the run's stats."""
    for key in CHUNK_STAT_KEYS:
        stats[key] += chunk_stats[key]
