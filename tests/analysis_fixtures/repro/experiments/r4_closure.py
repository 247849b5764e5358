"""R4 positive: pool callables that cannot cross a spawn."""


def submit_all(pool, tasks):
    handles = []
    for task in tasks:
        handles.append(pool.apply_async(lambda t: t["n"] + 1, (task,)))

    def local_runner(task):
        return task["n"]

    handles.append(pool.apply_async(local_runner, (tasks[0],)))
    return handles
