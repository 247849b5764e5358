"""Single declaration point for every ``REPRO_*`` environment variable.

Every knob the package reads from the environment is declared here as an
:class:`EnvVar` carrying its name, strict parser, documented default and a
one-line doc string.  Modules read through the declaration
(``envvars.TRACE.read()``) instead of touching ``os.environ`` directly —
rule R3 of the static analyzer (:mod:`repro.analysis`) enforces that no
``REPRO_*`` name is read anywhere else, so a new variable cannot ship
without a declaration, a parser and a docs-table entry.

Parsing is strict: a garbage value (``REPRO_TRACE=maybe``) raises a :class:`ValueError`
naming the variable and the offending value at configuration time, never an
opaque failure deep inside a run.  Unset (or empty) variables resolve to the
declared default without touching the parser.

The README's environment-variable table is generated from this registry
(:func:`render_table`); the analyzer fails when the two drift.

This module is a leaf: it imports nothing from the rest of the package, so
every layer (engine, obs, experiments, benchmarks) can depend on
it without cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

__all__ = [
    "EnvVar",
    "REGISTRY",
    "declare",
    "env_snapshot",
    "render_table",
    "parse_flag",
]


# -- strict parsers ----------------------------------------------------------
_TRUE_TOKENS = frozenset({"1", "true", "yes", "on"})
_FALSE_TOKENS = frozenset({"0", "false", "no", "off", ""})


def parse_flag(value: object, source: str = "flag") -> bool:
    """Parse an on/off flag; anything outside the known tokens is an error.

    Accepts ``1/true/yes/on`` and ``0/false/no/off`` case-insensitively.
    The old lenient readers treated any unknown token as *on* (or silently
    as *off*, depending on the module); a typo like ``REPRO_TRACE=ture``
    now fails loudly instead of silently picking a side.

    Raises:
        ValueError: for unrecognised tokens.
    """
    token = str(value).strip().lower()
    if token in _TRUE_TOKENS:
        return True
    if token in _FALSE_TOKENS:
        return False
    raise ValueError(
        f"{source} must be a boolean flag (1/0/true/false/yes/no/on/off), "
        f"got {value!r}"
    )


def parse_string(value: object, source: str = "value") -> str:
    """Identity parser for free-form string variables."""
    return str(value)


# -- the registry ------------------------------------------------------------
@dataclass(frozen=True)
class EnvVar:
    """One declared environment variable.

    Attributes:
        name: the ``REPRO_*`` environment name.
        parser: strict ``(value, source) -> parsed`` callable; raises
            :class:`ValueError` on garbage, naming ``source`` in the error.
        default: parsed value returned when the variable is unset or empty.
        default_doc: human-readable default for the docs table (falls back
            to ``repr(default)``).
        doc: one-line description for the docs table.
        keep_empty: pass an empty-but-set value to the parser instead of
            resolving to the default (for variables where ``""`` means
            something, like disabling a cache directory).
    """

    name: str
    parser: Callable[..., object]
    doc: str
    default: object = None
    default_doc: Optional[str] = None
    keep_empty: bool = False

    def raw(self) -> Optional[str]:
        """The raw (stripped) environment value, or ``None`` when unset."""
        value = os.environ.get(self.name)
        if value is None:
            return None
        value = value.strip()
        if not value and not self.keep_empty:
            return None
        return value

    def is_set(self) -> bool:
        """Whether the variable is set to a non-empty value."""
        return self.raw() is not None

    def read(self) -> object:
        """The parsed value, or the declared default when unset/empty.

        Raises:
            ValueError: when the environment holds a value the strict
                parser rejects; the message names the variable.
        """
        value = self.raw()
        if value is None:
            return self.default
        return self.parser(value, self.name)

    @property
    def default_text(self) -> str:
        """The default as rendered in the docs table."""
        if self.default_doc is not None:
            return self.default_doc
        return repr(self.default)


#: Declaration order is documentation order (the README table follows it).
REGISTRY: Dict[str, EnvVar] = {}


def declare(
    name: str,
    parser: Callable[..., object],
    doc: str,
    default: object = None,
    default_doc: Optional[str] = None,
    keep_empty: bool = False,
) -> EnvVar:
    """Register one environment variable (names must be unique ``REPRO_*``)."""
    if not name.startswith("REPRO_"):
        raise ValueError(f"environment variable {name!r} must start with REPRO_")
    if name in REGISTRY:
        raise ValueError(f"environment variable {name!r} is already declared")
    var = EnvVar(
        name=name,
        parser=parser,
        doc=doc,
        default=default,
        default_doc=default_doc,
        keep_empty=keep_empty,
    )
    REGISTRY[name] = var
    return var


def is_declared(name: str) -> bool:
    """Whether ``name`` is a declared ``REPRO_*`` variable."""
    return name in REGISTRY


def env_snapshot() -> Dict[str, str]:
    """Raw values of every *set* ``REPRO_*`` variable, in declaration order.

    The metrics artifact embeds this (``meta.env``) so every metrics file is
    a self-describing provenance record: which knobs shaped the run is part
    of the run, not something to reconstruct from shell history.
    """
    snapshot: Dict[str, str] = {}
    for name, var in REGISTRY.items():
        raw = var.raw()
        if raw is not None:
            snapshot[name] = raw
    return snapshot


# -- declarations ------------------------------------------------------------
TRACE = declare(
    "REPRO_TRACE",
    parse_flag,
    "Enable the telemetry recorder (counters, spans, event log) at import "
    "time; off by default with a no-op recorder.",
    default=False,
    default_doc="`0`",
)

TIMELINE = declare(
    "REPRO_TIMELINE",
    parse_flag,
    "Record begin/end span *intervals* (the timeline tier consumed by "
    "`python -m repro.obs export-trace` / `report`) in addition to the "
    "aggregate span table; implies nothing on its own — tracing must also "
    "be on (`REPRO_TRACE=1` / `--metrics` / `--trace-out`).",
    default=False,
    default_doc="`0`",
)

METRICS = declare(
    "REPRO_METRICS",
    parse_string,
    "Path for the machine-readable metrics JSON written after a run "
    "(implies tracing in the experiment runner).",
    default=None,
    default_doc="unset (no artifact)",
)


def _parse_cache_dir(value: object, source: str = "cache dir") -> Optional[str]:
    token = str(value).strip()
    if token.lower() in ("0", "off", "none", ""):
        return None
    return token


CACHE_DIR = declare(
    "REPRO_CACHE_DIR",
    _parse_cache_dir,
    "Cube-cache directory (PODEM cube sets only); `0`/`off`/`none`/empty "
    "disables caching.",
    default=".repro_cache",
    default_doc="`.repro_cache`",
    keep_empty=True,
)

INCLUDE_LARGE = declare(
    "REPRO_INCLUDE_LARGE",
    parse_flag,
    "Also build the largest ITC'99-style workload profiles.",
    default=False,
    default_doc="`0`",
)

FULL_SCALE = declare(
    "REPRO_FULL_SCALE",
    parse_flag,
    "Build large profiles at their full published size instead of the "
    "scaled-down default.",
    default=False,
    default_doc="`0`",
)

BENCH_FULL = declare(
    "REPRO_BENCH_FULL",
    parse_flag,
    "Benchmarks only: run the complete default benchmark list instead of "
    "the quick subset.",
    default=False,
    default_doc="`0`",
)


# -- docs table --------------------------------------------------------------
TABLE_BEGIN = "<!-- envvar-table:begin (generated by repro.envvars) -->"
TABLE_END = "<!-- envvar-table:end -->"


def render_table() -> str:
    """The registry as a markdown table (the README embeds this verbatim).

    The analyzer's R3 rule re-renders this and fails when the README block
    between :data:`TABLE_BEGIN` and :data:`TABLE_END` differs, so the docs
    cannot drift from the declarations.
    """
    lines = [
        "| Variable | Default | Description |",
        "| --- | --- | --- |",
    ]
    for var in REGISTRY.values():
        lines.append(f"| `{var.name}` | {var.default_text} | {var.doc} |")
    return "\n".join(lines)


def readme_block() -> str:
    """The generated table wrapped in its begin/end markers."""
    return f"{TABLE_BEGIN}\n{render_table()}\n{TABLE_END}"


def update_readme(path: str) -> bool:
    """Replace the marker-delimited table in ``path``; True when changed.

    Raises:
        ValueError: when the file lacks the marker pair — the table's home
            must be chosen by a human once, not injected at a guessed spot.
    """
    import io

    with io.open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if TABLE_BEGIN not in text or TABLE_END not in text:
        raise ValueError(
            f"{path} lacks the env-var table markers ({TABLE_BEGIN} / {TABLE_END})"
        )
    head, rest = text.split(TABLE_BEGIN, 1)
    _, tail = rest.split(TABLE_END, 1)
    updated = head + readme_block() + tail
    if updated == text:
        return False
    with io.open(path, "w", encoding="utf-8") as handle:
        handle.write(updated)
    return True


def _main(argv: Optional[list] = None) -> int:
    """``python -m repro.envvars``: print the table or refresh the README."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.envvars",
        description="Render the REPRO_* declaration table.",
    )
    parser.add_argument(
        "--write-readme",
        metavar="FILE",
        nargs="?",
        const="README.md",
        help="update the marker-delimited table in FILE (default README.md)",
    )
    args = parser.parse_args(argv)
    if args.write_readme:
        changed = update_readme(args.write_readme)
        print(f"{args.write_readme}: {'updated' if changed else 'already current'}")
        return 0
    print(readme_block())
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(_main())
