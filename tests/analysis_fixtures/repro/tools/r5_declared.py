"""R5 negative: declared counters, prefixes and span roots only."""

from repro.obs import recorder as obs


def emit(result, circuit_name):
    obs.counter("obs.events_dropped")
    obs.counter(f"podem.status.{result.status}")  # declared dynamic family
    obs.add_counters(result.stats, prefix="fault_sim.")
    obs.add_counters(
        {
            "podem.faults": 1,
            "podem.backtracks": result.backtracks,
        }
    )
    obs.counter("obs.intervals_dropped")  # timeline ring-buffer overflow
    with obs.span(f"fault_sim/{circuit_name}/words/grade"):
        pass
    with obs.span("runner/table1/collect"):
        pass
