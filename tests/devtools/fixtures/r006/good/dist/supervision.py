"""Good: dist/supervision.py is where the real clock may live."""

import time
from multiprocessing.connection import wait


class SystemClock:
    def block(self, seconds: float) -> None:
        time.sleep(seconds)

    def wait_readable(self, pipes: list, seconds: float) -> list:
        return wait(pipes, seconds)
