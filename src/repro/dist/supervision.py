"""Supervision primitives: clocks, heartbeats, leases, retry/backoff.

This is the **only** module of :mod:`repro.dist` that may touch real time
(lint rule R006): everything else — the coordinator's wait for a readable
pipe, its heartbeat sweep and backoff deadlines, the worker's heartbeat
thread — takes time through an injected :class:`SupervisionClock`, so unit
tests drive supervision logic with :class:`FakeClock` instead of sleeping,
and a reviewer can audit every wall-clock dependency in one file.

Wall-clock use here is deliberate and sound: supervision times *real
worker processes* (heartbeat arrival, death detection, retry pacing),
never simulated events, so it cannot leak into any experiment result —
retry jitter is drawn from a dedicated RNG stream derived via
:func:`supervision_stream`, disjoint by construction from every
experiment's seed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as wait_for_connections
from typing import TYPE_CHECKING, Protocol, Sequence

from repro.sim.rng import RandomStream, RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.campaign import CampaignConfig
    from repro.core.execution import ExecutionConfig


class SupervisionClock(Protocol):
    """Time source injected into every supervision consumer."""

    def monotonic(self) -> float:
        """Seconds on a monotonically increasing clock."""
        ...  # pragma: no cover - protocol

    def wait(self, event: threading.Event, seconds: float) -> bool:
        """Block up to ``seconds`` for ``event``; True when it was set."""
        ...  # pragma: no cover - protocol

    def wait_readable(
        self, connections: Sequence[Connection], seconds: float
    ) -> list[Connection]:
        """Block until a connection is readable or ``seconds`` pass.

        Returns the readable ones in the order given (a closed peer
        counts as readable: the read then reports the EOF), empty on
        timeout.
        """
        ...  # pragma: no cover - protocol


class SystemClock:
    """The real clock: monotonic time, event waits, pipe waits."""

    def monotonic(self) -> float:
        """Seconds on the process-wide monotonic clock."""
        # repro-lint: disable=R002 supervision times real worker processes, not simulated events
        return time.monotonic()

    def wait(self, event: threading.Event, seconds: float) -> bool:
        """Block the calling thread up to ``seconds`` for ``event``."""
        return event.wait(seconds)

    def wait_readable(
        self, connections: Sequence[Connection], seconds: float
    ) -> list[Connection]:
        """Block the calling thread on the operating system's poll."""
        ready = wait_for_connections(connections, seconds)
        return [connection for connection in connections if connection in ready]


class FakeClock:
    """A manually advanced clock for supervision unit tests.

    ``wait``/``wait_readable`` advance the clock themselves, so tests of
    backoff pacing and heartbeat expiry run in zero real time;
    :meth:`advance` moves time between probes.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)
        self.sleeps: list[float] = []

    def advance(self, seconds: float) -> None:
        """Move the clock forward."""
        self.now += seconds

    def monotonic(self) -> float:
        """The manually advanced time."""
        return self.now

    def wait(self, event: threading.Event, seconds: float) -> bool:
        """Advance instantly; report whether ``event`` was already set."""
        self.sleeps.append(seconds)
        self.now += seconds
        return event.is_set()

    def wait_readable(
        self, connections: Sequence[Connection], seconds: float
    ) -> list[Connection]:
        """What is readable right now; otherwise the timeout passes instantly."""
        ready = wait_for_connections(connections, 0)
        if not ready:
            self.sleeps.append(seconds)
            self.now += seconds
        return [connection for connection in connections if connection in ready]


def supervision_stream(campaign: "CampaignConfig", purpose: str = "retry-jitter") -> RandomStream:
    """The dedicated supervision RNG stream for one campaign.

    Derived through the public stream API from the first study's master
    seed under a ``dist-supervision`` namespace, so supervision draws
    (retry jitter) are reproducible per configuration yet provably
    disjoint from every experiment's ``experiment:<study>:<index>``
    derivation — scheduling never consumes experiment randomness.
    """
    master = campaign.studies[0].seed if campaign.studies else 0
    return RandomStreams(master).spawn("dist-supervision").stream(purpose)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for shard retries.

    ``delay(attempt, rng)`` for attempts 1, 2, 3, ... grows as
    ``backoff_base_s * 2**(attempt-1)`` capped at ``backoff_cap_s``, then
    stretched by up to ``jitter`` (a fraction) drawn from the supervision
    RNG stream — jitter decorrelates retry storms without ever touching
    experiment randomness.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 5.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0 (got {self.max_retries})")
        if self.backoff_base_s <= 0:
            raise ValueError(f"backoff base must be positive (got {self.backoff_base_s})")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be a fraction in [0, 1] (got {self.jitter})")

    @classmethod
    def from_execution(cls, config: "ExecutionConfig") -> "RetryPolicy":
        """The policy the engine's retry knobs select."""
        return cls(
            max_retries=config.max_retries,
            backoff_base_s=config.retry_backoff_base_s,
        )

    def exhausted(self, attempt: int) -> bool:
        """Whether ``attempt`` retries exceed the budget."""
        return attempt > self.max_retries

    def delay(self, attempt: int, rng: RandomStream) -> float:
        """The backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"retry attempts are 1-based (got {attempt})")
        base = min(self.backoff_base_s * (2 ** (attempt - 1)), self.backoff_cap_s)
        return base * (1.0 + self.jitter * rng.random())


class HeartbeatMonitor:
    """Tracks the last heartbeat of every worker against a timeout.

    Purely clock-driven — :meth:`beat` stamps arrivals, :meth:`expired`
    names the workers silent past the timeout — so the coordinator's
    supervision tick stays a trivial poll and tests drive expiry with a
    :class:`FakeClock`.
    """

    def __init__(self, timeout_s: float, clock: SupervisionClock) -> None:
        if timeout_s <= 0:
            raise ValueError(f"heartbeat timeout must be positive (got {timeout_s})")
        self.timeout_s = timeout_s
        self._clock = clock
        self._beats: dict[int, float] = {}

    def beat(self, worker_id: int) -> None:
        """Record a liveness signal (a heartbeat, hello, or completion)."""
        self._beats[worker_id] = self._clock.monotonic()

    def forget(self, worker_id: int) -> None:
        """Stop watching a worker that disconnected or was declared dead."""
        self._beats.pop(worker_id, None)

    def watched(self) -> tuple[int, ...]:
        """The workers currently being monitored, in id order."""
        return tuple(sorted(self._beats))

    def silence(self, worker_id: int) -> float:
        """Seconds since the worker's last recorded beat."""
        return self._clock.monotonic() - self._beats[worker_id]

    def expired(self) -> list[int]:
        """Workers silent for longer than the timeout, in id order."""
        now = self._clock.monotonic()
        return sorted(
            worker_id
            for worker_id, last in self._beats.items()
            if now - last > self.timeout_s
        )
