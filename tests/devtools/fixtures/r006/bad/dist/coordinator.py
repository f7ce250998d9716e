"""Bad: dist code waiting on the real clock instead of the injected one."""

import multiprocessing.connection
import time
from multiprocessing import connection as mpc
from multiprocessing.connection import wait
from time import sleep


def pace_retry(delay: float) -> None:
    time.sleep(delay)  # R006: bare time.sleep in repro.dist


def stall(delay: float) -> None:
    sleep(delay)  # R006: via `from time import sleep` above


def supervise_tick(pipes: list, interval: float) -> list:
    return multiprocessing.connection.wait(pipes, interval)  # R006: timed wait on pipes


def supervise_tick_aliased(pipes: list, interval: float) -> list:
    return mpc.wait(pipes, timeout=interval)  # R006: same call through an alias


def supervise_tick_imported(pipes: list, interval: float) -> list:
    return wait(pipes, interval)  # R006: via `from ... import wait` above


def await_reply(pipe, patience: float) -> bool:
    return pipe.poll(patience)  # R006: Connection.poll with a timeout blocks
