"""The worker process: run leased shards, stream completions back.

A worker is forked from the coordinating process *after* the campaign has
been published in ``_WORKER_STATE``, so unpicklable study contents —
application factories, often closures — reach it through copy-on-write
process memory.  It inherits one end of a duplex pipe and loops: lease in
(a :class:`~repro.dist.shards.ShardSpec`), run each experiment through
the engine's task function (runtime only, or fused runtime + analysis
with the payload already slimmed), send each result out as it finishes,
acknowledge the lease, repeat until the coordinator sends ``None``.  Only
shard bounds and pickled results ever cross the pipe.

Messages to the coordinator are pickled tuples led by one of the kinds
below.  Liveness is a daemon thread beating every
``heartbeat_interval_s`` on the shared pipe (sends are serialized by a
lock), so a long-running experiment cannot be mistaken for a dead worker.
All waiting goes through the injected supervision clock (lint rule R006).

:class:`WorkerOptions` carries the per-worker spawn parameters — and the
chaos seams the fault-injection harness under ``tests/chaos/`` drives:
``heartbeat_interval_s=None`` silences the beacon (a dropped-heartbeat
fault), ``stall_before_work_s`` freezes the worker before its first lease
(a hang), and ``duplicate_completions`` sends every result twice (a
duplicated-delivery fault, resolved idempotently by the coordinator).
Injecting faults into the orchestrator itself is how the paper's own
methodology gets applied to this engine.
"""

from __future__ import annotations

import pickle
import threading
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Any, Callable, Sequence

from repro.dist.shards import ShardSpec
from repro.dist.supervision import SupervisionClock, SystemClock

#: ``(HEARTBEAT,)`` — liveness beacon.
HEARTBEAT = "heartbeat"
#: ``(COMPLETION, study_index, experiment_index, value)`` — one finished experiment.
COMPLETION = "completion"
#: ``(SHARD_DONE, shard_id)`` — every experiment of the lease was sent; the worker is idle.
SHARD_DONE = "shard-done"
#: ``(FAILURE, study_index, experiment_index, pickled_exception | None, traceback_text)``
#: — the experiment raised; the worker exits after reporting it.
FAILURE = "failure"

#: The engine's task functions: ``(study, index) -> (study, index, value)``.
Task = Callable[[tuple[int, int]], tuple[int, int, Any]]
#: Sends one pickled message; safe to call from the heartbeat thread.
Send = Callable[[bytes], None]

_HEARTBEAT_MESSAGE = pickle.dumps((HEARTBEAT,))


@dataclass(frozen=True)
class WorkerOptions:
    """Spawn-time parameters of one worker.

    ``heartbeat_interval_s=None`` disables the heartbeat thread;
    ``stall_before_work_s`` and ``duplicate_completions`` are chaos seams
    (see the module docstring).
    """

    worker_id: int
    heartbeat_interval_s: float | None = 0.5
    stall_before_work_s: float = 0.0
    duplicate_completions: bool = False


class _HeartbeatThread(threading.Thread):
    """Daemon thread beating on the shared pipe every interval."""

    def __init__(
        self, send: Send, worker_id: int, interval_s: float, clock: SupervisionClock
    ) -> None:
        super().__init__(name=f"worker-{worker_id}-heartbeat", daemon=True)
        self._send = send
        self._interval_s = interval_s
        self._clock = clock
        self._stopped = threading.Event()  # not ``_stop``: Thread owns that name

    def run(self) -> None:
        while not self._clock.wait(self._stopped, self._interval_s):
            try:
                self._send(_HEARTBEAT_MESSAGE)
            except OSError:
                return  # coordinator is gone; the main loop notices too

    def stop(self) -> None:
        self._stopped.set()


def _pickled_exception(error: Exception) -> bytes | None:
    """``error`` pickled, or ``None`` when it would not survive the round trip."""
    try:
        payload = pickle.dumps(error)
        pickle.loads(payload)
    except Exception:  # whatever a user-defined __reduce__ or __init__ raises
        return None
    return payload


def _run_shard(send: Send, shard: ShardSpec, task: Task, options: WorkerOptions) -> bool:
    """Run one leased shard, sending a completion per experiment.

    Returns ``False`` after reporting an experiment that raised (or whose
    result could not be pickled).
    """
    for item in shard.tasks():
        try:
            completion = pickle.dumps((COMPLETION, *task(item)))
        except Exception as error:
            failure = (FAILURE, *item, _pickled_exception(error), traceback.format_exc())
            send(pickle.dumps(failure))
            return False
        send(completion)
        if options.duplicate_completions:
            send(completion)
    send(pickle.dumps((SHARD_DONE, shard.shard_id)))
    return True


def worker_main(
    options: WorkerOptions,
    connection: Connection,
    task: Task,
    inherited: Sequence[Connection] = (),
    clock: SupervisionClock | None = None,
) -> None:
    """Entry point of a forked worker process.

    ``inherited`` are the coordinator's own pipe ends, copied into this
    process by the fork; closing them here means a dead coordinator reads
    as EOF on every worker's pipe instead of being kept half-open by its
    siblings.  The worker exits quietly when its pipe closes (shutdown, or
    it was declared dead and superseded — its work is being redone
    elsewhere, so dying silently is the correct move).
    """
    for other in inherited:
        other.close()
    clock = clock or SystemClock()
    send_lock = threading.Lock()

    def send(message: bytes) -> None:
        with send_lock:
            connection.send_bytes(message)

    heartbeat: _HeartbeatThread | None = None
    try:
        if options.heartbeat_interval_s is not None:
            heartbeat = _HeartbeatThread(
                send, options.worker_id, options.heartbeat_interval_s, clock
            )
            heartbeat.start()
        if options.stall_before_work_s:
            clock.wait(threading.Event(), options.stall_before_work_s)
        while True:
            shard = connection.recv()
            if shard is None or not _run_shard(send, shard, task, options):
                return
    except (EOFError, OSError):
        return  # pipe torn down under us: superseded, shut down, or orphaned
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        connection.close()
