"""Compiled three-valued (0/1/X) implication engine for PODEM.

The dict-walking PODEM reference (:class:`repro.atpg.podem.DictPodemEngine`)
re-simulates the *entire* circuit through per-net dictionaries and scalar
``evaluate_ternary`` calls on every decision and every backtrack.  This
module lowers the whole implication machinery onto the compiled array
program of :mod:`repro.engine.compile`:

* one machine's ternary value is a **two-plane code** — bit 0 means "can be
  0", bit 1 means "can be 1" — so ``0b01`` is logic 0, ``0b10`` is logic 1
  and ``0b11`` is X.  Under this encoding Kleene ternary logic is plain
  integer bit twiddling: ``AND(a, b) = (a & b & 2) | ((a | b) & 1)``,
  ``OR(a, b) = ((a | b) & 2) | (a & b & 1)``, ``XOR(a, b)`` is X if either
  side is X and ``1 + ((a ^ b) >> 1)`` otherwise, ``NOT(a)`` swaps the
  planes.
* each row holds the good and the faulty machine in one **packed code**
  ``good | faulty << 2`` (9 valid values in 0..15).  The two-plane ops are
  precomputed on pairs of packed codes into 256-entry tables indexed by
  ``a << 4 | b`` (:data:`PAIR_AND`, :data:`PAIR_OR`, :data:`PAIR_XOR`) plus
  the 16-entry :data:`PAIR_NOT`, so one lookup per fan-in evaluates both
  machines at once.  The fault site row is forced to the stuck code in the
  faulty half, exactly like the packed fault simulator forces its lanes.
* D membership, "X in either machine" and X-path blocking are 16-entry
  tables over the packed code (:data:`CODE_IS_D`, :data:`CODE_HAS_X`,
  :data:`CODE_BLOCKS`).
* implication is **event-driven**: assigning one test pin evaluates only
  gates with an input that really changed, popped in topological order from
  a heap, and a gate's readers are queued only when its packed code changed.
* every changed row goes on a **trail** as ``(row, old_code)``; a backtrack
  restores the rows from the trail, last change first, instead of
  re-implying the retracted pins.
* the set of rows carrying a D is kept up to date wherever a code changes,
  so :meth:`~CompiledTernaryPodem.detected` is a set test and the
  D-frontier is the readers of those rows whose output is still X.  The
  X-path check visits frontier gates in objective order and answers each
  with a depth-first search that memoises rows known to reach no output.

The decision procedure itself (:meth:`CompiledTernaryPodem.run`) mirrors the
dict reference step for step — same objective selection, same backtrace,
same backtrack bookkeeping — so the generated cubes, the
detected/untestable/aborted classification and even the decision/backtrack
counters are bit-identical; ``tests/test_ternary.py`` asserts this on every
benchmark profile.  The engine works purely on rows and integers (no
:mod:`repro.atpg` types).

The ``(backtracks, decisions)`` pair rides in the raw result tuple, but it
is not the telemetry channel: :mod:`repro.obs` records the ``podem.*``
counters where :meth:`repro.atpg.podem.PodemEngine.generate` hands a result
to its caller, never here inside the search.

A generated cube is not the end of the pipeline: the ATPG driver
immediately fault-simulates a filled copy of it against the remaining fault
list (fault dropping).  That verification sweep grades one pattern against
many faults, the exact dual of what this engine optimises; from 8 remaining
faults on it runs on the fault-parallel grading kernel
(:func:`~repro.engine.fault.packed_first_detects_faults`, see
:func:`~repro.engine.fault.resolve_grading_kernel`), which packs 64
remaining faults per machine word.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import envvars
from repro.engine.compile import (
    CompiledCircuit,
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
)

#: Environment variable forcing the PODEM implication implementation
#: process-wide (``dict`` keeps the reference oracle, ``compiled`` forces
#: this engine even under the naive backend).
ATPG_MODE_ENV_VAR = envvars.ATPG_MODE.name

ATPG_MODES = envvars.ATPG_MODES

#: Two-plane ternary codes: bit 0 = "can be 0", bit 1 = "can be 1".
T_ZERO = 0b01
T_ONE = 0b10
T_X = 0b11

#: Cube-bit (0/1/2) -> ternary code; inverse of :data:`_BIT_OF_CODE`.
_CODE_OF_BIT = (T_ZERO, T_ONE, T_X)
#: Ternary code -> cube bit (codes are 1..3; index 0 is unused).
_BIT_OF_CODE = (None, 0, 1, 2)


def _pair_table(op: Callable[[int, int], int]) -> Tuple[int, ...]:
    """``op`` applied to both machines of two packed codes, indexed by ``a << 4 | b``.

    Entries whose operands hold a zero plane (no valid code) are never read.
    """
    table = [0] * 256
    for a in range(16):
        for b in range(16):
            ga, fa, gb, fb = a & 3, a >> 2, b & 3, b >> 2
            if ga and fa and gb and fb:
                table[a << 4 | b] = op(ga, gb) | op(fa, fb) << 2
    return tuple(table)


def _code_table(predicate: Callable[[int, int], object]) -> Tuple:
    """``predicate(good, faulty)`` for every packed code (0 for invalid codes)."""
    return tuple(
        predicate(code & 3, code >> 2) if code & 3 and code >> 2 else 0
        for code in range(16)
    )


def _not(a: int) -> int:
    return ((a & 1) << 1) | (a >> 1)


#: Both-machine AND / OR / XOR of two packed codes, indexed by ``a << 4 | b``.
PAIR_AND = _pair_table(lambda a, b: (a & b & 2) | ((a | b) & 1))
PAIR_OR = _pair_table(lambda a, b: ((a | b) & 2) | (a & b & 1))
PAIR_XOR = _pair_table(lambda a, b: T_X if (a == T_X or b == T_X) else 1 + ((a ^ b) >> 1))
#: Both-machine NOT of a packed code.
PAIR_NOT = _code_table(lambda g, f: _not(g) | _not(f) << 2)
#: Whether a packed code carries a D (both machines definite and different).
CODE_IS_D = _code_table(lambda g, f: (g ^ f) == 3)
#: Whether either machine of a packed code is X.
CODE_HAS_X = _code_table(lambda g, f: g == T_X or f == T_X)
#: Whether a packed code blocks an X-path (both machines definite, no D).
CODE_BLOCKS = _code_table(lambda g, f: g != T_X and f != T_X and (g ^ f) != 3)

#: Opcode -> (pair table, invert) of the node evaluation; BUF/NOT read one
#: fan-in, so their table is never used.
_NODE_KIND = {
    OP_BUF: (PAIR_AND, False),
    OP_NOT: (PAIR_AND, True),
    OP_AND: (PAIR_AND, False),
    OP_NAND: (PAIR_AND, True),
    OP_OR: (PAIR_OR, False),
    OP_NOR: (PAIR_OR, True),
    OP_XOR: (PAIR_XOR, False),
    OP_XNOR: (PAIR_XOR, True),
}

#: Raw engine result: ``(status, cube_bits, backtracks, decisions)`` with
#: ``cube_bits`` a 0/1/2 list over the test-pin rows (``None`` unless
#: detected).
RawPodemResult = Tuple[str, Optional[List[int]], int, int]


def resolve_atpg_mode(mode: Optional[str] = None) -> str:
    """Resolve a PODEM mode (explicit arg > ``REPRO_ATPG_MODE`` > auto).

    Raises:
        ValueError: for names outside :data:`ATPG_MODES`.
    """
    if mode is None:
        mode = envvars.ATPG_MODE.read() or "auto"
    if mode not in ATPG_MODES:
        raise ValueError(f"unknown ATPG mode {mode!r}; choose from {ATPG_MODES}")
    return mode


def code_of_bit(bit: int) -> int:
    """Ternary code for a cube bit (0 -> ``T_ZERO``, 1 -> ``T_ONE``, 2/X -> ``T_X``)."""
    return _CODE_OF_BIT[bit]


def bit_of_code(code: int) -> int:
    """Cube bit (0/1/2) for a ternary code."""
    return _BIT_OF_CODE[code]


class CompiledTernaryPodem:
    """PODEM over the compiled program with event-driven ternary implication.

    One engine instance serves any number of faults on its circuit: state is
    rebuilt per fault from a cached all-X baseline, then every decision
    re-evaluates only the gates whose inputs really changed, and every
    backtrack restores the changed rows from the trail.

    Args:
        program: compiled circuit (shared with the packed fault simulator).
        backtrack_limit: abort threshold, as in the dict reference.
    """

    def __init__(self, program: CompiledCircuit, backtrack_limit: int = 100) -> None:
        self.program = program
        self.backtrack_limit = backtrack_limit
        self._node_prog = program.node_prog
        self._readers = program.reader_lists
        self._n_inputs = program.n_inputs
        self._observable = program._observable_set
        self._levels = program.node_levels
        self._out_node = program.out_node
        # Per node ``(table, invert, out, first fan-in, remaining fan-ins)``;
        # constants (no fan-in, never re-queued) are set by the baseline pass.
        self._nodes = [
            (*_NODE_KIND[op], out, src[0], src[1:]) if src else None
            for op, out, src in self._node_prog
        ]
        self._base: Optional[List[int]] = None
        self._queued = [False] * len(self._nodes)  # on the heap of _propagate
        # Per-fault state, (re)built by reset().
        self._codes: List[int] = []  # packed ``good | faulty << 2`` per row
        self._d_rows: Set[int] = set()  # every row carrying a D
        self._trail: List[Tuple[int, int]] = []
        self._site_row = -1
        self._stuck_bit = 0
        self._stuck_code = T_ZERO

    # -- kernel ------------------------------------------------------------
    def _set_row(self, row: int, code: int) -> None:
        """Write the packed ``code`` to ``row`` and propagate the change downstream."""
        old = self._codes[row]
        if code == old:
            return
        self._trail.append((row, old))
        self._codes[row] = code
        if CODE_IS_D[code]:
            self._d_rows.add(row)
        else:
            self._d_rows.discard(row)
        self._propagate(self._readers[row])

    def _propagate(self, seeds) -> None:
        """Event-driven evaluation from the node positions ``seeds``.

        Positions are popped in topological order from a heap, and a gate's
        readers are queued only when its packed code really changed.  A
        gate goes on the heap once however many of its inputs changed (a
        per-node flag marks it queued until it is popped), so it is
        evaluated once, after all of them.  Every changed row is
        pushed on the trail and its D membership refreshed; the fault site
        row is forced to the stuck code in the faulty half, matching how the
        dict reference overrides the faulty machine.

        There is no opcode dispatch: every gate kind is the same loop over
        its precomputed node tuple, one pair-table lookup per fan-in and a
        NOT-table lookup for inverting gates, evaluating both machines at
        once.
        """
        nodes = self._nodes
        readers = self._readers
        codes = self._codes
        site = self._site_row
        stuck = self._stuck_code << 2
        invert_code = PAIR_NOT
        is_d = CODE_IS_D
        d_rows = self._d_rows
        trail = self._trail
        queued = self._queued
        heap = sorted(set(seeds))
        for pos in heap:
            queued[pos] = True
        while heap:
            pos = heappop(heap)
            queued[pos] = False
            table, invert, out, first, rest = nodes[pos]
            code = codes[first]
            for r in rest:
                code = table[code << 4 | codes[r]]
            if invert:
                code = invert_code[code]
            if out == site:
                code = (code & 3) | stuck
            old = codes[out]
            if code == old:
                continue
            trail.append((out, old))
            codes[out] = code
            if is_d[code]:
                d_rows.add(out)
            elif is_d[old]:
                d_rows.discard(out)
            for reader in readers[out]:
                if not queued[reader]:
                    queued[reader] = True
                    heappush(heap, reader)

    # -- per-fault state ---------------------------------------------------
    def reset(self, site_row: int, stuck_value: int) -> None:
        """Rebuild the implication state for one fault, all pins at X.

        Args:
            site_row: value-table row of the fault site.
            stuck_value: 0 or 1.
        """
        if self._base is None:
            self._site_row = -1  # no forcing during the baseline pass
            self._codes = [T_X | T_X << 2] * self.program.n_nets
            gates = []
            for pos, (op, out, _) in enumerate(self._node_prog):
                if op == OP_CONST0:
                    self._codes[out] = T_ZERO | T_ZERO << 2
                elif op == OP_CONST1:
                    self._codes[out] = T_ONE | T_ONE << 2
                else:
                    gates.append(pos)
            self._propagate(gates)
            self._base = self._codes
        self._site_row = site_row
        self._stuck_bit = 1 if stuck_value else 0
        self._stuck_code = T_ONE if stuck_value else T_ZERO
        base = self._base
        self._codes = list(base)
        self._d_rows = set()
        self._trail = []
        self._set_row(site_row, (base[site_row] & 3) | self._stuck_code << 2)
        self._trail.clear()  # the fault's all-X state is the floor of undo()

    def assign(self, pin_row: int, value: Optional[int]) -> None:
        """Set a test pin to 0/1 (or back to X with ``None``) and re-imply.

        Only gates downstream of a row that really changed are evaluated.
        Every changed row is recorded on the trail, so :meth:`undo` can
        restore the state from before this call.
        """
        code = T_X if value is None else _CODE_OF_BIT[value]
        faulty = self._stuck_code if pin_row == self._site_row else code
        self._set_row(pin_row, code | faulty << 2)

    def trail_mark(self) -> int:
        """Current trail position, for a later :meth:`undo`."""
        return len(self._trail)

    def undo(self, mark: int) -> None:
        """Restore every row changed since ``mark`` (last change first)."""
        trail = self._trail
        codes = self._codes
        d_rows = self._d_rows
        for row, code in reversed(trail[mark:]):
            codes[row] = code
            if CODE_IS_D[code]:
                d_rows.add(row)
            else:
                d_rows.discard(row)
        del trail[mark:]

    @property
    def detected(self) -> bool:
        """Whether any observable row currently carries a D."""
        return not self._d_rows.isdisjoint(self._observable)

    def machine_codes(self) -> Tuple[List[int], List[int]]:
        """Copies of the (good, faulty) per-row ternary codes (for tests)."""
        codes = self._codes
        return [code & 3 for code in codes], [code >> 2 for code in codes]

    # -- analysis ----------------------------------------------------------
    def d_frontier(self) -> List[int]:
        """Node positions whose output is still X but an input carries a D.

        The candidates are the readers of the rows currently carrying a D,
        in position (topological) order, matching the dict reference's
        full-circuit walk.  An output that is X in either machine cannot
        carry a D itself.
        """
        readers = self._readers
        candidates: Set[int] = set()
        for row in self._d_rows:
            candidates.update(readers[row])
        node_prog = self._node_prog
        codes = self._codes
        return [pos for pos in sorted(candidates) if CODE_HAS_X[codes[node_prog[pos][1]]]]

    def _x_path_exists(self, row: int, dead: Set[int]) -> bool:
        """Whether an X-path leads from ``row`` to an observable row.

        Depth-first over readers whose output is still *unblocked* (X in
        either machine, or carrying a D), as the reference's search.
        ``dead`` memoises rows already shown to reach no output under the
        current state; a failed search adds every row it visited.
        """
        observable = self._observable
        if row in observable:
            return True
        node_prog = self._node_prog
        readers = self._readers
        codes = self._codes
        seen = {row}
        stack = [row]
        while stack:
            for reader_pos in readers[stack.pop()]:
                out = node_prog[reader_pos][1]
                if out in seen or out in dead:
                    continue
                if CODE_BLOCKS[codes[out]]:
                    continue
                if out in observable:
                    return True
                seen.add(out)
                stack.append(out)
        dead |= seen
        return False

    def choose_objective(self) -> Optional[Tuple[int, int]]:
        """Next ``(row, value)`` objective, or ``None`` for a dead branch."""
        codes = self._codes
        site = self._site_row
        site_code = codes[site] & 3
        if site_code == T_X:
            return site, 1 - self._stuck_bit
        if site_code == self._stuck_code:
            return None  # fault cannot be excited under the current assignment
        frontier = self.d_frontier()
        if not frontier:
            return None
        frontier.sort(key=self._levels.__getitem__, reverse=True)
        node_prog = self._node_prog
        dead: Set[int] = set()
        for pos in frontier:
            op, out, src = node_prog[pos]
            for r in src:
                if codes[r] & 3 == T_X:
                    break
            else:
                continue
            if not self._x_path_exists(out, dead):
                continue
            if op == OP_OR or op == OP_NOR:
                return r, 0  # non-controlling value of OR-like gates
            return r, 1  # AND-like gates, and XOR-like "any definite value"
        return None

    def backtrace(self, row: int, value: int) -> Optional[Tuple[int, int]]:
        """Walk an objective back to an unassigned test pin, as the reference does."""
        codes = self._codes
        node_prog = self._node_prog
        out_node = self._out_node
        current, target = row, value
        guard = 0
        limit = len(node_prog) + self._n_inputs + 1
        while current >= self._n_inputs:
            guard += 1
            if guard > limit:
                return None
            op, _, src = node_prog[out_node[current]]
            if op == OP_CONST0 or op == OP_CONST1:
                return None
            if op == OP_NOT or op == OP_NAND or op == OP_NOR or op == OP_XNOR:
                target ^= 1
            chosen = -1
            for r in src:
                if codes[r] & 3 == T_X:
                    chosen = r
                    break
            if chosen < 0:
                return None
            current = chosen
        if codes[current] & 3 != T_X:
            return None
        return current, target

    # -- main search -------------------------------------------------------
    def run(self, site_row: int, stuck_value: int) -> RawPodemResult:
        """Search for a test cube detecting a stuck-at fault.

        The control flow is a line-for-line mirror of the dict reference's
        ``generate`` loop, with the full re-implication replaced by the
        event-driven :meth:`assign` on a decision and a trail :meth:`undo`
        on a retraction or a flip.

        Returns:
            ``(status, cube_bits, backtracks, decisions)`` with ``status``
            one of ``"detected"`` / ``"untestable"`` / ``"aborted"`` and
            ``cube_bits`` a 0/1/2 list over the test-pin rows (``None``
            unless detected).
        """
        self.reset(site_row, stuck_value)
        assignment: Dict[int, int] = {}
        decisions: List[List[int]] = []  # [pin_row, value, exhausted, trail mark]
        backtracks = 0
        total_decisions = 0

        while True:
            if self.detected:
                bits = [2] * self._n_inputs
                for pin, value in assignment.items():
                    bits[pin] = value
                return "detected", bits, backtracks, total_decisions

            objective = self.choose_objective()
            next_assignment: Optional[Tuple[int, int]] = None
            if objective is not None:
                next_assignment = self.backtrace(objective[0], objective[1])

            if next_assignment is None:
                # Dead branch: undo decisions until one still has an untried value.
                while decisions and decisions[-1][2]:
                    pin, __, __, mark = decisions.pop()
                    assignment.pop(pin, None)
                    self.undo(mark)
                if not decisions:
                    return "untestable", None, backtracks, total_decisions
                backtracks += 1
                if backtracks > self.backtrack_limit:
                    return "aborted", None, backtracks, total_decisions
                last = decisions[-1]
                last[1] ^= 1
                last[2] = True
                assignment[last[0]] = last[1]
                self.undo(last[3])
                self.assign(last[0], last[1])
                continue

            pin, value = next_assignment
            assignment[pin] = value
            decisions.append([pin, value, False, self.trail_mark()])
            total_decisions += 1
            self.assign(pin, value)
