"""R5 positive: telemetry names that escape the declared manifest."""

from repro.obs import recorder as obs


def emit(result):
    obs.counter("totally_ungrammatical")  # no subsystem prefix at all
    obs.counter("runner.not_in_manifest")  # parses but is undeclared
    obs.counter(f"runner.cell.{result.kind}")  # undeclared dynamic family
    obs.add_counters(result.stats, prefix="rogue.")  # undeclared prefix
    obs.counter("obs.not_a_real_interval_counter")  # undeclared obs.* name
    with obs.span("bogus/root/path"):  # undeclared span root
        pass
