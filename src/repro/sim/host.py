"""Hosts and the operating-system scheduling model.

The performance analysis of the original Loki runtime (Figures 3.2 and 3.3)
found that the probability of a correct state-driven injection is governed
almost entirely by the OS context-switching latency incurred when
notification messages are sent and received — not by the network delay or
by Loki's own processing.  The host model therefore charges a *scheduling
delay* every time a message wakes up a process that is not currently
running: a context-switch cost plus a uniformly distributed wait of up to
``runnable_competitors`` timeslices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RuntimeConfigurationError
from repro.sim.clock import ClockParameters, HardwareClock
from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class SchedulerConfig:
    """Operating-system scheduling parameters for one host.

    Attributes
    ----------
    timeslice:
        Length of the OS scheduling quantum in seconds.  The paper's
        experiments use 10 ms (stock Linux 2.2) and 1 ms (patched kernel).
    context_switch_cost:
        Fixed cost charged per wake-up, in seconds.
    runnable_competitors:
        Average number of other runnable processes competing for the CPU.
        The wake-up wait is uniform on ``[0, runnable_competitors *
        timeslice]``.
    immediate_probability:
        Probability that the woken process is already scheduled on the CPU
        and pays only the context-switch cost (models an otherwise idle
        host where the receiving process is blocked in ``select``).
    """

    timeslice: float = 0.010
    context_switch_cost: float = 50e-6
    runnable_competitors: float = 1.0
    immediate_probability: float = 0.35

    def __post_init__(self) -> None:
        if self.timeslice <= 0:
            raise RuntimeConfigurationError("timeslice must be positive")
        if self.context_switch_cost < 0:
            raise RuntimeConfigurationError("context switch cost cannot be negative")
        if self.runnable_competitors < 0:
            raise RuntimeConfigurationError("runnable_competitors cannot be negative")
        if not 0.0 <= self.immediate_probability <= 1.0:
            raise RuntimeConfigurationError("immediate_probability must be within [0, 1]")


class Host:
    """A machine of the distributed system: its hardware clock and OS scheduler.

    Processes read ``clock`` at the kernel's current time themselves (see
    :meth:`~repro.sim.process.SimProcess.local_clock`); the environment
    keeps the registry of which process runs where.
    """

    def __init__(
        self,
        name: str,
        streams: RandomStreams,
        clock: ClockParameters | HardwareClock | None = None,
        scheduler: SchedulerConfig | None = None,
    ) -> None:
        self.name = name
        self._rng = streams.stream(f"host:{name}")
        if isinstance(clock, HardwareClock):
            self.clock = clock
        else:
            self.clock = HardwareClock(clock or ClockParameters())
        self.scheduler = scheduler or SchedulerConfig()

    def scheduling_delay(self) -> float:
        """Sample the delay before a woken process runs on the CPU."""
        config = self.scheduler
        delay = config.context_switch_cost
        if self._rng.random() >= config.immediate_probability:
            delay += self._rng.uniform(0.0, config.runnable_competitors * config.timeslice)
        return delay

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Host({self.name!r}, clock={self.clock!r})"
