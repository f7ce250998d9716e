"""The campaign coordinator: shard dispatch, liveness, and recovery.

:class:`CampaignCoordinator` owns one parallel campaign run.  Its
:meth:`~CampaignCoordinator.run` is a plain generator driven by the
calling thread: it forks the workers (which inherit the published
campaign through copy-on-write memory and one end of a duplex pipe each),
then loops on "some pipe is readable, or the tick elapsed", yielding every
first-time completion straight to the engine — so completion sinks (and
therefore the campaign store) and progress callbacks run in the
coordinating process, between two reads.  No thread is ever started on
the coordinator side, which keeps forking a replacement worker
mid-campaign sound.

Supervision is lease-based.  Every shard is leased to exactly one worker
at a time; a worker is declared dead on pipe EOF or a message cut off
mid-way (a SIGKILL's signatures — never mistaken for "done") or on
heartbeat silence past the configured timeout.  Its shard is re-queued
behind an exponential-backoff not-before time whose jitter comes from the
dedicated supervision RNG stream, and a replacement worker is forked so a
campaign whose only worker died still finishes.  Completions are resolved
idempotently by ``(study, experiment)`` key — a re-run shard whose
original worker had already delivered part of its range produces
duplicates, and determinism makes dropping them bit-safe.  Degradation is
graceful: fewer workers than requested is a warning, zero workers falls
back to an in-process serial run, and retry exhaustion raises
:class:`~repro.errors.ExecutionInterrupted` naming the lost experiments —
with the campaign store (if attached) already holding everything that
completed, so a re-run heals instead of restarting.

:class:`ParallelExecutor` adapts the coordinator to the execution
engine's backend interface; ``ExecutionConfig(backend="process-pool")``
and ``ExecutionConfig(backend="distributed")`` both select it.
"""

from __future__ import annotations

import multiprocessing
import pickle
import warnings
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.core.execution import PROCESS_POOL, ExperimentExecutor, available_backends
from repro.dist.shards import ShardSpec, plan_shards
from repro.dist.supervision import (
    HeartbeatMonitor,
    RetryPolicy,
    SupervisionClock,
    SystemClock,
    supervision_stream,
)
from repro.dist.worker import (
    COMPLETION,
    FAILURE,
    SHARD_DONE,
    Task,
    WorkerOptions,
    worker_main,
)
from repro.errors import (
    ExecutionInterrupted,
    NoWorkersError,
    RuntimeConfigurationError,
    RuntimePhaseError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.campaign import CampaignConfig
    from repro.core.execution import ExecutionConfig

#: One finished experiment: ``(study_index, experiment_index, value)``.
Completion = tuple[int, int, object]


@dataclass
class WorkerHandle:
    """Everything the coordinator tracks about one worker process."""

    worker_id: int
    process: multiprocessing.process.BaseProcess
    connection: Connection
    alive: bool = True
    lease: ShardSpec | None = None


class CampaignCoordinator:
    """Supervises one parallel campaign run (see the module docstring).

    Subclass hooks — :meth:`worker_options` and
    :meth:`chaos_on_completion` — are the seams the chaos harness injects
    faults through; production code never overrides them.
    """

    def __init__(
        self,
        campaign: "CampaignConfig",
        shards: Sequence[ShardSpec],
        *,
        task: Task,
        workers: int,
        config: "ExecutionConfig",
        clock: SupervisionClock | None = None,
    ) -> None:
        if workers < 1:
            raise NoWorkersError("a parallel campaign needs at least one worker")
        self.campaign = campaign
        self.shards = list(shards)
        self.task = task
        self.requested_workers = workers
        self.config = config
        self.clock = clock or SystemClock()
        self.retry = RetryPolicy.from_execution(config)
        self.rng = supervision_stream(campaign)
        self.monitor = HeartbeatMonitor(config.heartbeat_timeout_s, self.clock)
        #: Every worker ever started, dead ones included, by id.
        self.workers: dict[int, WorkerHandle] = {}
        self.stats = {
            "completions": 0,
            "duplicates_dropped": 0,
            "reassignments": 0,
            "workers_lost": 0,
        }
        self._spawned = 0
        self._total = sum(shard.size for shard in self.shards)
        self._ready: deque[ShardSpec] = deque(self.shards)
        #: Lost shards waiting out their backoff: ``(not_before, shard)``.
        self._backing_off: list[tuple[float, ShardSpec]] = []
        self._attempts: dict[int, int] = {}
        self._delivered: set[tuple[int, int]] = set()

    # -- chaos seams -------------------------------------------------------------------

    def worker_options(self, worker_id: int) -> WorkerOptions:
        """Spawn parameters of one worker (chaos tests override per worker).

        Raising :class:`OSError` here stands in for a failing ``fork``.
        """
        return WorkerOptions(
            worker_id=worker_id,
            heartbeat_interval_s=self.config.heartbeat_interval_s,
        )

    def chaos_on_completion(
        self, worker_id: int, study_index: int, experiment_index: int
    ) -> None:
        """Hook invoked for every accepted completion (chaos tests override)."""

    # -- the supervision loop ----------------------------------------------------------

    def run(self) -> Iterator[Completion]:
        """Drive the campaign, yielding each experiment once, in completion order.

        Returns when every experiment was delivered.  Raises
        :class:`~repro.errors.NoWorkersError` before the first completion
        if no worker could be started, the experiment's own exception if
        one raised in a worker, and
        :class:`~repro.errors.ExecutionInterrupted` when lost work
        outlives the retry budget.  The fleet is reaped on every way out,
        including the consumer closing the generator early.
        """
        try:
            self._start_fleet()
            while len(self._delivered) < self._total:
                self._dispatch()
                live = {handle.connection: handle for handle in self._live()}
                ready = self.clock.wait_readable(list(live), self._tick())
                # Anything readable counts as a beat *before* the sweep: a
                # consumer that was slow with the previous completion must
                # not get workers whose beats queued up meanwhile expired.
                for connection in ready:
                    self.monitor.beat(live[connection].worker_id)
                self._sweep()
                for connection in ready:
                    completion = self._receive(live[connection])
                    if completion is not None:
                        yield completion
        finally:
            self._stop_fleet()

    def _tick(self) -> float:
        """How long the loop may block: a heartbeat interval, or until a backoff ends."""
        tick = self.config.heartbeat_interval_s
        if self._backing_off:
            soonest = min(not_before for not_before, _ in self._backing_off)
            tick = min(tick, max(soonest - self.clock.monotonic(), 0.0))
        return tick

    def _sweep(self) -> None:
        """Declare silent workers dead; re-queue shards whose backoff has passed."""
        for worker_id in self.monitor.expired():
            self._worker_lost(
                self.workers[worker_id],
                f"no heartbeat for over {self.monitor.timeout_s:g}s",
            )
        now = self.clock.monotonic()
        self._ready.extend(shard for not_before, shard in self._backing_off if not_before <= now)
        self._backing_off = [entry for entry in self._backing_off if entry[0] > now]

    # -- the fleet ---------------------------------------------------------------------

    def _live(self) -> list[WorkerHandle]:
        return [handle for handle in self.workers.values() if handle.alive]

    def _start_fleet(self) -> None:
        for _ in range(self.requested_workers):
            self._start_worker()
        if not self.workers:
            raise NoWorkersError("no worker process could be started")
        if len(self.workers) < self.requested_workers:
            warnings.warn(
                f"requested {self.requested_workers} workers but only "
                f"{len(self.workers)} could be started; proceeding degraded"
            )

    def _start_worker(self) -> None:
        """Add one worker to the fleet; failing to only warns."""
        worker_id = self._spawned
        self._spawned += 1
        try:
            process, connection = self._fork(self.worker_options(worker_id))
        except OSError as error:
            warnings.warn(f"could not start worker {worker_id}: {error}")
            return
        self.workers[worker_id] = WorkerHandle(worker_id, process, connection)
        self.monitor.beat(worker_id)

    def _fork(
        self, options: WorkerOptions
    ) -> tuple[multiprocessing.process.BaseProcess, Connection]:
        """Fork one worker process on a fresh duplex pipe; returns it with our end."""
        context = multiprocessing.get_context("fork")
        ours, theirs = context.Pipe(duplex=True)
        try:
            process = context.Process(
                target=worker_main,
                args=(
                    options,
                    theirs,
                    self.task,
                    [ours] + [handle.connection for handle in self._live()],
                ),
                name=f"campaign-worker-{options.worker_id}",
                daemon=True,
            )
            process.start()
        except OSError:
            ours.close()
            raise
        finally:
            # Only the worker may hold its end, or its death would never
            # read as EOF here (and the next fork would inherit the copy).
            theirs.close()
        return process, ours

    def _stop_fleet(self) -> None:
        """Dismiss the live workers, then join every process, escalating."""
        for handle in self._live():
            try:
                handle.connection.send(None)
            except OSError:
                pass  # died since the last read; reaped below
            handle.connection.close()
        for handle in self.workers.values():
            process = handle.process
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - unkillable worker
                process.kill()
                process.join(timeout=1.0)

    # -- dispatch and receipt ----------------------------------------------------------

    def _dispatch(self) -> None:
        """Lease ready shards to idle workers, lowest worker id first."""
        for handle in self._live():
            if not self._ready:
                return
            if handle.lease is None:
                handle.lease = self._ready.popleft()
                try:
                    handle.connection.send(handle.lease)
                except OSError as error:
                    self._worker_lost(handle, f"lease send failed: {error}")

    def _receive(self, handle: WorkerHandle) -> Completion | None:
        """Read one message; returns the completion if it is a first delivery."""
        try:
            message = handle.connection.recv()
        except (EOFError, OSError, pickle.UnpicklingError) as error:
            # EOF between messages, EOF inside one, or a torn pickle: died.
            self._worker_lost(handle, f"connection lost: {str(error) or 'end of file'}")
            return None
        kind = message[0]
        if kind == COMPLETION:
            key = message[1], message[2]
            if key in self._delivered:
                # A re-run shard's original worker got here first (or a
                # chaotic worker double-sent): determinism makes the copies
                # bit-identical, so first-wins is safe.
                self.stats["duplicates_dropped"] += 1
                return None
            self._delivered.add(key)
            self.stats["completions"] += 1
            self.chaos_on_completion(handle.worker_id, *key)
            return message[1:]
        if kind == SHARD_DONE:
            handle.lease = None
        elif kind == FAILURE:
            raise self._experiment_error(handle, *message[1:])
        return None

    def _experiment_error(
        self,
        handle: WorkerHandle,
        study_index: int,
        experiment_index: int,
        pickled: bytes | None,
        remote_traceback: str,
    ) -> BaseException:
        """The exception an experiment raised in a worker, as serial would raise it."""
        where = (
            f"experiment {self.campaign.studies[study_index].name}:{experiment_index} "
            f"on worker {handle.worker_id}"
        )
        if pickled is None:
            return RuntimePhaseError(f"{where} failed:\n{remote_traceback}")
        error: BaseException = pickle.loads(pickled)
        error.add_note(f"raised by {where}; worker traceback:\n{remote_traceback}")
        return error

    # -- failure handling --------------------------------------------------------------

    def _worker_lost(self, handle: WorkerHandle, reason: str) -> None:
        """Bury a dead (or hung) worker, recover its lease, fork a replacement."""
        handle.alive = False
        handle.connection.close()
        handle.process.kill()  # a hung worker must not outlive its verdict
        self.monitor.forget(handle.worker_id)
        self.stats["workers_lost"] += 1
        shard, handle.lease = handle.lease, None
        if shard is not None and not self._delivered.issuperset(shard.tasks()):
            attempt = self._attempts.get(shard.shard_id, 0) + 1
            self._attempts[shard.shard_id] = attempt
            pending = self._pending_tasks()
            named = ", ".join(f"{study}:{index}" for study, index in pending[:5])
            if len(pending) > 5:
                named += f", ... (+{len(pending) - 5} more)"
            if self.retry.exhausted(attempt):
                raise ExecutionInterrupted(
                    f"worker {handle.worker_id} died ({reason}) and {shard.describe()} "
                    f"exhausted its {self.retry.max_retries} retries; "
                    f"{len(pending)} experiment(s) unfinished: {named}",
                    pending=pending,
                )
            warnings.warn(
                f"worker {handle.worker_id} died ({reason}) holding {shard.describe()}; "
                f"retry {attempt} of {self.retry.max_retries}, "
                f"{len(pending)} experiment(s) unfinished: {named}"
            )
            self.stats["reassignments"] += 1
            not_before = self.clock.monotonic() + self.retry.delay(attempt, self.rng)
            self._backing_off.append((not_before, shard))
        self._start_worker()
        if not self._live():
            raise ExecutionInterrupted(
                "every worker died and no replacement could be started",
                pending=self._pending_tasks(),
            )

    def _pending_tasks(self) -> list[tuple[str, int]]:
        """The experiments not yet delivered, as (study name, index) pairs."""
        return [
            (self.campaign.studies[study_index].name, index)
            for shard in self.shards
            for study_index, index in shard.tasks()
            if (study_index, index) not in self._delivered
        ]


# ---------------------------------------------------------------------------
# The execution-engine backend
# ---------------------------------------------------------------------------


class ParallelExecutor(ExperimentExecutor):
    """The one parallel backend, under both of its names.

    Plans contiguous seed-range shards of ``chunk_size`` experiments and
    feeds a :class:`CampaignCoordinator`'s completion stream through the
    engine's shared ``_collect`` path — so completion sinks
    (campaign-store streaming) and progress callbacks behave exactly as on
    the serial backend.

    ``coordinator_class`` is a test seam: the chaos harness substitutes
    coordinator subclasses that inject faults through the supervision
    hooks.
    """

    coordinator_class: type[CampaignCoordinator] = CampaignCoordinator

    _stats: dict[str, int] = {}

    @property
    def stats(self) -> dict[str, int]:
        """Supervision counters of the most recent run (empty before the first).

        ``completions``, ``duplicates_dropped``, ``reassignments`` and
        ``workers_lost``, as counted by the run's coordinator.
        """
        return dict(self._stats)

    def _completions(
        self, campaign: "CampaignConfig", task: Task, items: list[tuple[int, int]]
    ) -> Iterator[Completion]:
        if PROCESS_POOL not in available_backends():
            raise RuntimeConfigurationError(
                f"the {self.config.backend} backend needs the 'fork' multiprocessing "
                "start method, which this platform does not provide; use the serial "
                "backend"
            )
        if not items:
            return  # fully resumed campaign: nothing to fork for
        workers = min(self.config.resolved_workers(), len(items))
        shards = plan_shards(items, self.config.resolved_chunk_size(len(items), workers))
        coordinator = self.coordinator_class(
            campaign,
            shards,
            task=task,
            workers=min(workers, len(shards)),
            config=self.config,
        )
        try:
            yield from coordinator.run()
        except NoWorkersError as error:
            # Raised only before the first completion, so nothing runs twice.
            warnings.warn(f"falling back to in-process serial execution: {error}")
            yield from map(task, items)
        finally:
            self._stats = dict(coordinator.stats)
