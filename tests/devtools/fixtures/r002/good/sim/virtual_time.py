"""Good: deterministic code reads simulated time, never the host's clock."""


def stamp(kernel) -> float:
    return kernel.now


def local_time(process) -> float:
    return process.local_clock()
