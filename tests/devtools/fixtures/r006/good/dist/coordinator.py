"""Good: dist code taking all of its time through the injected clock."""


class Coordinator:
    def __init__(self, clock) -> None:
        self.clock = clock

    def pace_retry(self, stop, delay: float) -> None:
        self.clock.wait(stop, delay)

    def supervise_tick(self, pipes: list, interval: float) -> list:
        return self.clock.wait_readable(pipes, interval)

    def has_reply(self, pipe) -> bool:
        return pipe.poll()  # no timeout: looks, never blocks
