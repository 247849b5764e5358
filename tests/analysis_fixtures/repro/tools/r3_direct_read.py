"""R3 positive: REPRO_* env reads bypassing or missing the registry."""

import os


def jobs_from_env():
    # Declared variable, but read directly: its parser/default are bypassed.
    return int(os.environ.get("REPRO_JOBS", "1"))


def rogue_knob():
    # Never declared in repro.envvars at all.
    return os.getenv("REPRO_UNDECLARED_KNOB")


def subscript_read():
    return os.environ["REPRO_TRACE"]
