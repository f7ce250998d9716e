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
from collections import deque
from typing import Any, Callable

from repro.errors import RuntimePhaseError

# A heap entry is a plain tuple ``(time, seq, handle, callback, args)``.
# ``seq`` values are unique, so heap comparisons are decided entirely by the
# ``(time, seq)`` prefix in C tuple comparison and never reach the handle —
# replacing the previous dataclass entry whose generated ``__lt__`` dominated
# the delivery benchmark's profile.  ``handle`` is ``None`` for events posted
# through the fire-and-forget fast path (:meth:`SimKernel.post_at`), which
# skips the :class:`EventHandle` allocation entirely.
_QueueEntry = tuple[float, int, "EventHandle | None", Callable[..., Any], tuple]

# The monotone lane stores no entry objects at all: it is a struct of
# arrays — four parallel deques holding each event's time, sequence
# number, callback, and single argument.  Per-event entry tuples would
# all survive generation 0 (they sit in the queue until dispatched), and
# those survivors are exactly what paces the cyclic GC during large send
# bursts; deques of scalars and callables add nothing for the collector
# to traverse.  The lane therefore only accepts single-argument
# callbacks (the delivery hot path's shape) — other posts fall back to
# the heap, which merges correctly by the shared ``(time, seq)`` key.


class EventHandle:
    """Handle returned by :meth:`SimKernel.schedule` for cancellation."""

    __slots__ = ("time", "callback", "args", "cancelled", "_kernel", "_in_queue")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple,
        kernel: "SimKernel | None" = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._kernel = kernel
        self._in_queue = kernel is not None

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._in_queue and self._kernel is not None:
            self._kernel._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"EventHandle(t={self.time:.6f}, cb={name}, cancelled={self.cancelled})"


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
        # The monotone lane: :meth:`post_at` events whose times arrive in
        # nondecreasing order (the overwhelmingly common case — network
        # deliveries are clamped to a FIFO floor) are kept in plain FIFO
        # deques instead of the heap.  Entries carry the same global
        # ``(time, seq)`` ordering key, and the dispatch loops always run
        # whichever lane's head is smaller, so the merged execution order
        # is exactly the single-heap order — but the hot lane pops in O(1)
        # instead of paying a full sift-down per event.  See the module
        # comment above for why the lane is a struct of arrays.
        self._posted_times: deque[float] = deque()
        self._posted_seqs: deque[int] = deque()
        self._posted_callbacks: deque[Callable[..., Any]] = deque()
        self._posted_args: deque[Any] = deque()
        self._seq = itertools.count()
        self._events_processed = 0
        self._cancelled_in_queue = 0
        self._compactions = 0

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
        return len(self._queue) + len(self._posted_times) - self._cancelled_in_queue

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
        handle = EventHandle(time, callback, args, kernel=self)
        heapq.heappush(self._queue, (time, next(self._seq), handle, callback, args))
        return handle

    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule a callback that will never be cancelled (the fast path).

        Semantically identical to :meth:`schedule_at` — same validation,
        same ``(time, seq)`` ordering against every other event — but it
        allocates no :class:`EventHandle`, which matters on per-message hot
        paths like network delivery that schedule hundreds of thousands of
        fire-and-forget events per campaign.
        """
        if time < self._now:
            raise RuntimePhaseError(
                f"cannot schedule an event at t={time} before current time t={self._now}"
            )
        times = self._posted_times
        if len(args) == 1 and not (times and time < times[-1]):
            self._posted_times.append(time)
            self._posted_seqs.append(next(self._seq))
            self._posted_callbacks.append(callback)
            self._posted_args.append(args[0])
        else:
            # Out-of-order or non-unary post: fall back to the heap
            # (correct for any time and arity).  The monotone lane stays
            # sorted — and single-argument — by construction.
            heapq.heappush(self._queue, (time, next(self._seq), None, callback, args))

    def _posted_first(self) -> bool:
        """Whether the monotone lane's head precedes the heap's head.

        Assumes both lanes are non-empty; ties fall back to the globally
        unique sequence numbers, exactly as heap-entry tuple comparison
        would decide them.
        """
        head = self._queue[0]
        time = self._posted_times[0]
        return time < head[0] or (time == head[0] and self._posted_seqs[0] < head[1])

    def _dispatch_posted(self) -> None:
        """Pop and run the monotone lane's head event."""
        self._now = self._posted_times.popleft()
        self._posted_seqs.popleft()
        self._events_processed += 1
        self._posted_callbacks.popleft()(self._posted_args.popleft())

    def step(self) -> bool:
        """Run the next pending callback.  Return ``False`` if none remain."""
        queue = self._queue
        while queue or self._posted_times:
            if queue and not (self._posted_times and self._posted_first()):
                entry = heapq.heappop(queue)
                handle = entry[2]
                if handle is not None:
                    if handle.cancelled:
                        self._discard(handle)
                        continue
                    handle._in_queue = False
                self._now = entry[0]
                self._events_processed += 1
                entry[3](*entry[4])
            else:
                self._dispatch_posted()
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run callbacks until the queue drains or a limit is reached.

        Parameters
        ----------
        until:
            If given, stop once the next pending callback would run after
            this time; the kernel clock is then advanced to ``until``.
        max_events:
            If given, stop after executing this many callbacks (a guard
            against runaway experiments).
        """
        # The loop body is peek + :meth:`step` fused inline: peeking is a
        # plain head access and popping skips a second cancellation
        # check, which removes two Python-level calls per event — a
        # measurable share of campaign runtime at hundreds of thousands
        # of events.  Both lanes are drained in global ``(time, seq)``
        # order (see ``_posted_times`` and friends).
        queue = self._queue
        times = self._posted_times
        seqs = self._posted_seqs
        callbacks = self._posted_callbacks
        arguments = self._posted_args
        pop = heapq.heappop
        executed = 0
        if until is None and max_events is None:
            # Unbounded drain (the campaign-end and benchmark case):
            # no limit checks, and the monotone lane pops without the
            # peek-then-delete dance the `until` boundary needs.
            while True:
                if queue:
                    if times and self._posted_first():
                        self._now = times.popleft()
                        seqs.popleft()
                        self._events_processed += 1
                        callbacks.popleft()(arguments.popleft())
                        continue
                    entry = pop(queue)
                    handle = entry[2]
                    if handle is not None:
                        if handle.cancelled:
                            self._discard(handle)
                            continue
                        handle._in_queue = False
                    self._now = entry[0]
                    self._events_processed += 1
                    entry[3](*entry[4])
                elif times:
                    self._now = times.popleft()
                    seqs.popleft()
                    self._events_processed += 1
                    callbacks.popleft()(arguments.popleft())
                else:
                    return
        while queue or times:
            if max_events is not None and executed >= max_events:
                return
            if queue and not (times and self._posted_first()):
                entry = queue[0]
                handle = entry[2]
                if handle is not None and handle.cancelled:
                    pop(queue)
                    self._discard(handle)
                    continue
                if until is not None and entry[0] > until:
                    self._now = max(self._now, until)
                    return
                pop(queue)
                if handle is not None:
                    handle._in_queue = False
                self._now = entry[0]
                self._events_processed += 1
                entry[3](*entry[4])
            else:
                if until is not None and times[0] > until:
                    self._now = max(self._now, until)
                    return
                self._now = times.popleft()
                seqs.popleft()
                self._events_processed += 1
                callbacks.popleft()(arguments.popleft())
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
        # local alias across callbacks, and a callback may cancel enough
        # timers to trigger compaction mid-loop.
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
