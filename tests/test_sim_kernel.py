"""Unit tests for the discrete-event simulation kernel.

Besides the example tests, the kernel's ordering contract is held as a
property: random programs of ``schedule``/``schedule_at``/``post_at``
(zero to two arguments, equal and out-of-order times), ``cancel`` (in
amounts that trigger compaction), ``step``, ``run(until=)`` and
``run(max_events=)`` are replayed against :class:`ReferenceKernel`, a
sorted-dict model of the contract.  The programs come from a seeded table
(always) and from hypothesis (when installed, under the root
``conftest.py`` profile).
"""

import functools
import itertools
import random
import sys
from collections import Counter

import pytest

from repro.errors import RuntimePhaseError
from repro.sim.kernel import SimKernel

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ModuleNotFoundError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False


def test_kernel_starts_at_zero():
    kernel = SimKernel()
    assert kernel.now == 0.0
    assert kernel.pending == 0
    assert kernel.events_processed == 0


def test_kernel_custom_start_time():
    kernel = SimKernel(start_time=5.0)
    assert kernel.now == 5.0


def test_schedule_and_run_single_event():
    kernel = SimKernel()
    fired = []
    kernel.schedule(1.5, fired.append, "a")
    kernel.run()
    assert fired == ["a"]
    assert kernel.now == pytest.approx(1.5)


def test_events_run_in_time_order():
    kernel = SimKernel()
    order = []
    kernel.schedule(3.0, order.append, "late")
    kernel.schedule(1.0, order.append, "early")
    kernel.schedule(2.0, order.append, "middle")
    kernel.run()
    assert order == ["early", "middle", "late"]


def test_same_time_events_run_in_schedule_order():
    kernel = SimKernel()
    order = []
    for label in ("first", "second", "third"):
        kernel.schedule(1.0, order.append, label)
    kernel.run()
    assert order == ["first", "second", "third"]


def test_schedule_at_absolute_time():
    kernel = SimKernel()
    seen = []
    kernel.schedule_at(2.5, lambda: seen.append(kernel.now))
    kernel.run()
    assert seen == [pytest.approx(2.5)]


def test_negative_delay_rejected():
    kernel = SimKernel()
    with pytest.raises(RuntimePhaseError):
        kernel.schedule(-0.1, lambda: None)


def test_schedule_in_the_past_rejected():
    kernel = SimKernel()
    kernel.schedule(1.0, lambda: None)
    kernel.run()
    with pytest.raises(RuntimePhaseError):
        kernel.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    kernel = SimKernel()
    fired = []
    handle = kernel.schedule(1.0, fired.append, "x")
    handle.cancel()
    kernel.run()
    assert fired == []
    assert kernel.events_processed == 0


def test_run_until_stops_before_later_events():
    kernel = SimKernel()
    fired = []
    kernel.schedule(1.0, fired.append, "a")
    kernel.schedule(5.0, fired.append, "b")
    kernel.run(until=2.0)
    assert fired == ["a"]
    assert kernel.now == pytest.approx(2.0)
    kernel.run()
    assert fired == ["a", "b"]


def test_run_max_events_limit():
    kernel = SimKernel()
    fired = []
    for i in range(10):
        kernel.schedule(float(i + 1), fired.append, i)
    kernel.run(max_events=3)
    assert fired == [0, 1, 2]


def test_stop_ends_the_run_before_the_next_event():
    kernel = SimKernel()
    fired = []
    kernel.schedule(1.0, fired.append, 1)
    kernel.schedule(2.0, kernel.stop)
    kernel.schedule(3.0, fired.append, 3)
    kernel.run(until=10.0)
    assert fired == [1]
    assert kernel.now == 2.0 and kernel.pending == 1
    # The next run starts afresh, and a stop outside any run is forgotten.
    kernel.stop()
    kernel.run()
    assert fired == [1, 3]


def test_events_scheduled_during_run_are_processed():
    kernel = SimKernel()
    fired = []

    def chain(step):
        fired.append(step)
        if step < 3:
            kernel.schedule(1.0, chain, step + 1)

    kernel.schedule(1.0, chain, 0)
    kernel.run()
    assert fired == [0, 1, 2, 3]
    assert kernel.now == pytest.approx(4.0)


def test_step_returns_false_when_empty():
    kernel = SimKernel()
    assert kernel.step() is False


def test_pending_counts_only_live_events():
    kernel = SimKernel()
    handle = kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    assert kernel.pending == 2
    handle.cancel()
    assert kernel.pending == 1


def test_advance_to_moves_time_forward_only():
    kernel = SimKernel()
    kernel.advance_to(4.0)
    assert kernel.now == 4.0
    with pytest.raises(RuntimePhaseError):
        kernel.advance_to(1.0)


def test_events_processed_counter():
    kernel = SimKernel()
    for i in range(5):
        kernel.schedule(float(i), lambda: None)
    kernel.run()
    assert kernel.events_processed == 5


def test_cancelling_twice_keeps_pending_consistent():
    kernel = SimKernel()
    handle = kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert kernel.pending == 1


def test_cancel_after_execution_keeps_pending_consistent():
    kernel = SimKernel()
    handle = kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    kernel.step()
    handle.cancel()  # already ran: must not corrupt the live counter
    assert kernel.pending == 1
    kernel.run()
    assert kernel.pending == 0


def test_heap_compaction_drops_dominating_cancelled_entries():
    kernel = SimKernel()
    doomed = [kernel.schedule(1e6 + i, lambda: None) for i in range(200)]
    kernel.schedule(1.0, lambda: None)
    for handle in doomed:
        handle.cancel()
    # The cancelled entries dominated the heap, so it was compacted
    # instead of lingering until their (far-future) times surface.  Only
    # sub-threshold residues may remain.
    assert kernel.compactions >= 1
    assert len(kernel._queue) < SimKernel.COMPACTION_MIN_QUEUE
    assert kernel.pending == 1


def test_small_queues_are_not_compacted():
    kernel = SimKernel()
    handles = [kernel.schedule(10.0 + i, lambda: None) for i in range(10)]
    for handle in handles:
        handle.cancel()
    assert kernel.compactions == 0
    assert kernel.pending == 0


def test_compaction_preserves_execution_order():
    kernel = SimKernel()
    order = []
    live = []
    doomed = []
    # Interleave live and to-be-cancelled events at identical times to
    # stress the (time, seq) ordering across a compaction.
    for i in range(100):
        live.append(kernel.schedule(float(i % 7), order.append, i))
        doomed.append(kernel.schedule(float(i % 7), order.append, -i - 1))
    doomed.extend(kernel.schedule(50.0, order.append, -1000 - i) for i in range(20))
    expected = sorted(range(100), key=lambda i: (i % 7, i))
    for handle in doomed:
        handle.cancel()
    assert kernel.compactions >= 1
    kernel.run()
    assert order == expected
    assert kernel.events_processed == 100


def test_post_at_orders_against_scheduled_events_at_equal_times():
    # Insertion order breaks equal-time ties between posted and scheduled
    # events, whichever kind came first.
    kernel = SimKernel()
    order = []
    kernel.post_at(1.0, order.append, "posted-first")
    kernel.schedule_at(1.0, lambda: order.append("scheduled-second"))
    kernel.run()
    assert order == ["posted-first", "scheduled-second"]

    kernel = SimKernel()
    order = []
    kernel.schedule_at(1.0, lambda: order.append("scheduled-first"))
    kernel.post_at(1.0, order.append, "posted-second")
    kernel.run()
    assert order == ["scheduled-first", "posted-second"]


def test_post_at_accepts_any_arity_and_out_of_order_times():
    kernel = SimKernel()
    order = []
    kernel.post_at(1.0, lambda: order.append("zero-arg"))
    kernel.post_at(1.0, order.append, "unary")
    kernel.post_at(1.0, lambda a, b: order.append((a, b)), 1, 2)
    kernel.post_at(0.5, order.append, "out-of-order")
    assert kernel.pending == 4
    kernel.run()
    assert order == ["out-of-order", "zero-arg", "unary", (1, 2)]
    assert kernel.pending == 0
    assert kernel.events_processed == 4


def test_run_until_and_step_interleave_posted_and_scheduled_events():
    kernel = SimKernel()
    order = []
    kernel.post_at(1.0, order.append, "p1")
    kernel.schedule_at(2.0, lambda: order.append("s2"))
    kernel.post_at(3.0, order.append, "p3")
    kernel.run(until=2.5)
    assert order == ["p1", "s2"]
    assert kernel.now == 2.5
    assert kernel.step()
    assert order == ["p1", "s2", "p3"]
    assert not kernel.step()


def test_step_enters_no_python_function_but_the_callback():
    # One queue means one dispatch path: stepping through a mix of
    # scheduled and posted events enters only the callbacks, plus
    # ``_discard`` once per cancelled entry.  A second event lane would
    # show up here as extra Python frames per step.
    rng = random.Random(0x51)
    kernel = SimKernel()
    ran = []

    def callback(label):
        ran.append(label)

    handles = []
    for label in range(200):
        if label % 2:
            kernel.post_at(label / 100, callback, label)
        else:
            handles.append(kernel.schedule_at(rng.uniform(0.0, 2.0), callback, label))
    cancelled = handles[::4]
    for handle in cancelled:
        handle.cancel()
    entered = Counter()

    def profile(frame, event, arg):
        if event == "call":
            entered[frame.f_code.co_name] += 1

    steps = 0
    sys.setprofile(profile)
    try:
        while kernel.step():
            steps += 1
    finally:
        sys.setprofile(None)
    assert steps == len(ran) == 200 - len(cancelled)
    assert entered == Counter(step=steps + 1, callback=steps, _discard=len(cancelled))


# ---------------------------------------------------------------------------
# The ordering contract as a property
# ---------------------------------------------------------------------------

#: Offsets from ``now`` that programs place events at: repeats give equal
#: times, and a draw smaller than an earlier one gives out-of-order inserts.
OFFSETS = (0.0, 0.25, 0.5, 0.5, 1.0, 2.0)

#: The three ways a program inserts an event.
ADD_KINDS = ("schedule", "schedule_at", "post_at")

#: Batches sit this far out, so they stay queued until cancelled or drained.
BATCH_DELAY = 5.0


def child_of(label):
    """The event a fired event inserts in turn, as ``(offset, label)``, or ``None``.

    A function of the label alone, so the kernel and the model insert the
    same children at the same points of their own runs.
    """
    if label < 0 or label % 3:
        return None
    return OFFSETS[label % len(OFFSETS)], -label - 1


class ReferenceKernel:
    """The contract: live events run in ``(time, insertion)`` order."""

    def __init__(self):
        self.now = 0.0
        self.events = {}  # insertion number -> (time, label), live events only
        self.inserted = 0
        self.fired = []

    def add(self, time, label):
        self.events[self.inserted] = (time, label)
        self.inserted += 1
        return self.inserted - 1

    def head(self):
        return min(self.events, key=lambda key: (self.events[key][0], key))

    def step(self):
        if not self.events:
            return False
        self.now, label = self.events.pop(self.head())
        self.fired.append(label)
        child = child_of(label)
        if child is not None:
            self.add(self.now + child[0], child[1])
        return True

    def run(self, until=None, max_events=None):
        executed = 0
        while self.events:
            if max_events is not None and executed >= max_events:
                return
            if until is not None and self.events[self.head()][0] > until:
                break
            self.step()
            executed += 1
        if until is not None:
            self.now = max(self.now, until)


def run_program(program):
    """Replay ``program`` on a kernel and on the model, comparing after each operation.

    Returns the kernel's compaction count.
    """
    kernel = SimKernel()
    model = ReferenceKernel()
    fired = []
    handles = []  # (handle, model key) for every handle-returning insertion
    labels = itertools.count()

    def fire(label, *extra):
        fired.append(label)
        child = child_of(label)
        if child is not None:
            offset, child_label = child
            if child_label % 2:
                kernel.post_at(kernel.now + offset, fire, child_label)
            else:
                kernel.schedule_at(kernel.now + offset, fire, child_label, "extra")

    def add(kind, offset, arity):
        label = next(labels)
        if arity == 0:
            callback, args = functools.partial(fire, label), ()
        else:
            callback, args = fire, (label, "extra")[:arity]
        time = kernel.now + offset
        key = model.add(time, label)
        if kind == "post_at":
            kernel.post_at(time, callback, *args)
        elif kind == "schedule":
            handles.append((kernel.schedule(offset, callback, *args), key))
        else:
            handles.append((kernel.schedule_at(time, callback, *args), key))

    def check():
        assert fired == model.fired
        assert kernel.now == model.now
        assert kernel.pending == len(model.events)
        assert kernel.events_processed == len(model.fired)

    for name, *operands in program:
        if name == "add":
            add(*operands)
        elif name == "batch":
            for index in range(operands[0]):
                offset = BATCH_DELAY + OFFSETS[index % len(OFFSETS)]
                add(ADD_KINDS[index % 3], offset, index // 3 % 3)
        elif name == "cancel":
            start, count = operands
            for index in range(start, start + count):
                if handles:
                    handle, key = handles[index % len(handles)]
                    handle.cancel()
                    model.events.pop(key, None)
        elif name == "step":
            assert kernel.step() == model.step()
        elif name == "until":
            until = kernel.now + OFFSETS[operands[0]]
            kernel.run(until=until)
            model.run(until=until)
        else:
            kernel.run(max_events=operands[0])
            model.run(max_events=operands[0])
        check()
    kernel.run()
    model.run()
    check()
    assert kernel.pending == 0 and not kernel.step()
    return kernel.compactions


def random_program(rng, length=40):
    """One seeded program, drawn like the hypothesis strategy below."""
    program = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.45:
            program.append(
                ("add", rng.choice(ADD_KINDS), rng.randrange(len(OFFSETS)), rng.randrange(3))
            )
        elif roll < 0.55:
            program.append(("batch", rng.randint(8, 40)))
        elif roll < 0.7:
            program.append(("cancel", rng.randrange(1000), rng.randint(1, 40)))
        elif roll < 0.8:
            program.append(("step",))
        elif roll < 0.9:
            program.append(("until", rng.randrange(len(OFFSETS))))
        else:
            program.append(("max", rng.randint(0, 8)))
    return program


#: Three batches, then enough cancels that the dead entries dominate.
COMPACTING_PROGRAM = [
    ("batch", 40),
    ("batch", 40),
    ("batch", 40),
    ("cancel", 0, 90),
    ("add", "post_at", 0, 1),
    ("step",),
    ("until", 4),
    ("max", 3),
]

SEEDED_PROGRAMS = [random_program(random.Random(seed)) for seed in range(48)]


def test_compacting_program_compacts():
    assert run_program(COMPACTING_PROGRAM) >= 1


@pytest.mark.parametrize("index", range(len(SEEDED_PROGRAMS)))
def test_kernel_matches_reference_on_seeded_programs(index):
    run_program(SEEDED_PROGRAMS[index])


if HAVE_HYPOTHESIS:
    operations = st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(ADD_KINDS),
            st.integers(0, len(OFFSETS) - 1),
            st.integers(0, 2),
        ),
        st.tuples(st.just("batch"), st.integers(8, 40)),
        st.tuples(st.just("cancel"), st.integers(0, 999), st.integers(1, 40)),
        st.just(("step",)),
        st.tuples(st.just("until"), st.integers(0, len(OFFSETS) - 1)),
        st.tuples(st.just("max"), st.integers(0, 8)),
    )

    @given(program=st.lists(operations, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_reference_on_generated_programs(program):
        run_program(program)
