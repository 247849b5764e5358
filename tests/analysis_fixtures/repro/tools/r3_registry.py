"""R3 negative: every REPRO_* knob goes through the declaration registry."""

import os

from repro import envvars


def cache_dir_from_env():
    return envvars.CACHE_DIR.read()


def trace_from_env():
    return envvars.TRACE.read()


def unrelated_env_read():
    # Non-REPRO names are outside the registry's jurisdiction.
    return os.environ.get("HOME")
