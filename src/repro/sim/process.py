"""Simulated processes.

A :class:`SimProcess` is the unit the paper calls a *component*: one
process of the distributed system under study (or one Loki daemon).  It is
an event-driven object — the kernel calls :meth:`SimProcess.start` once and
:meth:`SimProcess.receive` for every delivered message — so that whole
experiments remain deterministic without coroutines or threads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import RuntimePhaseError
from repro.sim.kernel import EventHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.environment import Environment
    from repro.sim.host import Host
    from repro.sim.kernel import SimKernel
    from repro.sim.network import NetworkMessage


class SimProcess:
    """Base class for all simulated processes.

    Subclasses override :meth:`start`, :meth:`receive`, and optionally
    :meth:`on_crash` / :meth:`on_exit`.  All interaction with the outside
    world goes through the services the environment binds at placement:
    sending messages (the environment), setting timers (the kernel), and
    reading the local hardware clock (the host).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._environment: "Environment | None" = None
        self._host: "Host | None" = None
        self._kernel: "SimKernel | None" = None
        #: The ``"host/name"`` network endpoint, fixed when the process is placed.
        self._endpoint: str | None = None
        self._alive = False
        self._exited = False
        self._crashed = False
        self._timers: list[EventHandle] = []

    # -- lifecycle ---------------------------------------------------------

    @property
    def alive(self) -> bool:
        """Whether the process is currently running."""
        return self._alive

    @property
    def exited(self) -> bool:
        """Whether the process terminated cleanly."""
        return self._exited

    @property
    def crashed(self) -> bool:
        """Whether the process terminated by crashing."""
        return self._crashed

    @property
    def host(self) -> "Host":
        """The host this process runs on."""
        if self._host is None:
            raise RuntimePhaseError(f"process {self.name!r} is not placed on a host")
        return self._host

    @property
    def environment(self) -> "Environment":
        """The environment this process is registered with."""
        if self._environment is None:
            raise RuntimePhaseError(f"process {self.name!r} is not attached to an environment")
        return self._environment

    def _bind(self, environment: "Environment", host: "Host") -> None:
        self._environment = environment
        self._host = host
        self._kernel = environment.kernel
        self._endpoint = f"{host.name}/{self.name}"
        self._alive = True
        self._exited = False
        self._crashed = False

    # -- to be overridden ---------------------------------------------------

    def start(self) -> None:
        """Called once when the process begins executing."""

    def receive(self, message: "NetworkMessage") -> None:
        """Called for every message delivered to this process."""

    def on_crash(self, reason: str) -> None:
        """Hook invoked when the process crashes (signal handler analogue)."""

    def on_exit(self) -> None:
        """Hook invoked when the process exits cleanly."""

    # -- services provided to subclasses ------------------------------------
    #
    # These run once or more per simulated event, so they use what _bind
    # stored (an unplaced process fails with AttributeError on None).

    def local_clock(self) -> float:
        """Read the local host's hardware clock (what real code would see)."""
        return self._host.clock.read(self._kernel._now)

    def send(self, destination: str, payload: Any) -> None:
        """Send a message to another process, addressed by process name."""
        self._environment.send(self.name, destination, payload)

    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule a local callback; it is cancelled if the process dies."""
        handle = self._kernel.schedule(delay, self._fire_timer, callback, args)
        self._timers.append(handle)
        return handle

    def _fire_timer(self, callback: Callable[..., None], args: tuple[Any, ...]) -> None:
        if self._alive:
            callback(*args)

    def exit(self) -> None:
        """Terminate the process cleanly."""
        if not self._alive:
            return
        self._alive = False
        self._exited = True
        self._cancel_timers()
        self.on_exit()
        self._environment.process_terminated(self, crashed=False)

    def crash(self, reason: str = "injected fault") -> None:
        """Terminate the process abruptly (a crash failure)."""
        if not self._alive:
            return
        self._alive = False
        self._crashed = True
        self._cancel_timers()
        self.on_crash(reason)
        self._environment.process_terminated(self, crashed=True)

    def _cancel_timers(self) -> None:
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        status = "alive" if self._alive else ("crashed" if self._crashed else "stopped")
        return f"{type(self).__name__}({self.name!r}, {status})"
