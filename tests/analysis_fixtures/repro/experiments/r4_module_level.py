"""R4 negative: spawn-safe pool submissions."""


def handle_simulate(task):
    return task["n"] * 2


def submit_all(pool, tasks):
    return [pool.apply_async(handle_simulate, (task,)) for task in tasks]
