"""Discrete-event simulation kernel.

The kernel owns virtual time (the *physical* time ``t`` of the paper's
clock model) and a priority queue of scheduled callbacks.  Everything else
in the substrate — clocks, the network, the OS scheduler, application
processes, and the Loki runtime itself — is driven by callbacks scheduled
on a single kernel instance, which is what makes whole experiments
deterministic and replayable.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.errors import RuntimePhaseError

# A heap entry is a plain tuple ``(time, seq, handle, callback, args)``.
# ``seq`` values are unique, so heap comparisons are decided entirely by the
# ``(time, seq)`` prefix in C tuple comparison and never reach the handle.
# ``handle`` is ``None`` for events that can never be cancelled
# (:meth:`SimKernel.post_at`).  Only the kernel's own methods push entries.
_QueueEntry = tuple[float, int, "EventHandle | None", Callable[..., Any], tuple]


class EventHandle:
    """Handle returned by :meth:`SimKernel.schedule` for cancellation."""

    __slots__ = ("time", "cancelled", "_kernel", "_in_queue")

    def __init__(self, time: float, kernel: "SimKernel") -> None:
        self.time = time
        self.cancelled = False
        self._kernel = kernel
        self._in_queue = True

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._in_queue:
            self._kernel._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"EventHandle(t={self.time:.6f}, cancelled={self.cancelled})"


class SimKernel:
    """Virtual-time event loop.

    Time is a float number of seconds of physical (true) time.  Callbacks
    scheduled for the same instant run in scheduling order, which keeps the
    simulation deterministic.
    """

    #: Queues smaller than this are never compacted (the scan is cheap).
    COMPACTION_MIN_QUEUE = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[_QueueEntry] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._cancelled_in_queue = 0
        self._compactions = 0
        self._stopped = False

    @property
    def now(self) -> float:
        """Current physical simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of scheduled (not yet cancelled) callbacks.

        Maintained as a live counter, so this is O(1) rather than a scan of
        the queue (experiments cancel large numbers of watchdog timers).
        """
        return len(self._queue) - self._cancelled_in_queue

    @property
    def compactions(self) -> int:
        """How many times the heap has been compacted (observability)."""
        return self._compactions

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise RuntimePhaseError(f"cannot schedule an event in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run at absolute time ``time``."""
        if time < self._now:
            raise RuntimePhaseError(
                f"cannot schedule an event at t={time} before current time t={self._now}"
            )
        handle = EventHandle(time, self)
        heapq.heappush(self._queue, (time, next(self._seq), handle, callback, args))
        return handle

    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule a callback that will never be cancelled.

        Semantically identical to :meth:`schedule_at` — same validation,
        same ``(time, seq)`` ordering against every other event — but it
        returns no :class:`EventHandle` and allocates none.
        """
        if time < self._now:
            raise RuntimePhaseError(
                f"cannot schedule an event at t={time} before current time t={self._now}"
            )
        heapq.heappush(self._queue, (time, next(self._seq), None, callback, args))

    def step(self) -> bool:
        """Run the next pending callback.  Return ``False`` if none remain."""
        queue = self._queue
        while queue:
            time, _, handle, callback, args = heapq.heappop(queue)
            if handle is not None:
                if handle.cancelled:
                    self._discard(handle)
                    continue
                handle._in_queue = False
            self._now = time
            self._events_processed += 1
            callback(*args)
            return True
        return False

    def stop(self) -> None:
        """Make the current :meth:`run` return before its next event.

        A callback calls this when the phase it belongs to is over (the
        campaign's experiment completion does); the next :meth:`run`
        starts afresh.
        """
        self._stopped = True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run callbacks until the queue drains, a limit is reached or :meth:`stop`.

        Parameters
        ----------
        until:
            If given, stop once the next pending callback would run after
            this time; the kernel clock is then advanced to ``until``
            (not after a :meth:`stop`).
        max_events:
            If given, stop after executing this many callbacks (a guard
            against runaway experiments).
        """
        # The loop body is peek + :meth:`step` fused inline: peeking is a
        # plain head access and popping skips a second cancellation
        # check, which removes two Python-level calls per event — a
        # measurable share of campaign runtime at hundreds of thousands
        # of events.
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        self._stopped = False
        while queue:
            if self._stopped or (max_events is not None and executed >= max_events):
                return
            entry = queue[0]
            handle = entry[2]
            if handle is not None and handle.cancelled:
                pop(queue)
                self._discard(handle)
                continue
            if until is not None and entry[0] > until:
                break
            pop(queue)
            if handle is not None:
                handle._in_queue = False
            self._now = entry[0]
            self._events_processed += 1
            entry[3](*entry[4])
            executed += 1
        if until is not None:
            self._now = max(self._now, until)

    # -- lazy-deletion bookkeeping ----------------------------------------------------
    #
    # Cancelled entries stay in the heap until they surface at the top
    # (classic lazy deletion).  Long campaigns cancel very large numbers of
    # watchdog and retransmission timers whose firing times lie far in the
    # future, so without intervention the heap grows without bound and every
    # push pays log(dead + live).  The kernel therefore counts cancelled
    # entries still in the heap and rebuilds the heap from the live entries
    # once the dead ones dominate.  Compaction preserves each entry's
    # (time, seq) ordering key, so callback execution order — and with it
    # simulation determinism — is unchanged.

    def _discard(self, handle: EventHandle) -> None:
        """A cancelled entry left the heap: keep the live counter honest."""
        if handle._in_queue:
            handle._in_queue = False
            self._cancelled_in_queue -= 1

    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel` while the entry is queued."""
        self._cancelled_in_queue += 1
        if (
            len(self._queue) >= self.COMPACTION_MIN_QUEUE
            and self._cancelled_in_queue * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify the live ones."""
        live: list[_QueueEntry] = []
        for entry in self._queue:
            handle = entry[2]
            if handle is not None and handle.cancelled:
                handle._in_queue = False
            else:
                live.append(entry)
        heapq.heapify(live)
        # In-place so the queue list object stays stable: run() holds a
        # local alias across callbacks (a callback may cancel enough
        # timers to trigger compaction mid-loop).
        self._queue[:] = live
        self._cancelled_in_queue = 0
        self._compactions += 1

    def advance_to(self, time: float) -> None:
        """Advance the clock with no callbacks (used between experiments)."""
        if time < self._now:
            raise RuntimePhaseError("cannot move simulation time backwards")
        self._now = time

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SimKernel(now={self._now:.6f}, pending={self.pending})"
