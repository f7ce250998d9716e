"""The envelope rows of a sync table analyse exactly like the whole table.

A campaign store archives only the synchronization messages on some
machine's clock envelope (:func:`repro.analysis.clock_sync.envelope_rows`).
That is lossless only if, for the same machines and reference,

* ``estimate_all_bounds`` on the kept rows equals it on the whole table,
  field by field and bit for bit, polygon vertices included — or raises
  the very same error;
* keeping is idempotent, and the kept rows are a subsequence of the table
  in its own order, over the same host pool;
* ``tests/data/clock_bounds_golden.json`` reproduces from the kept rows of
  every registry scenario's runs.

The tables are rich in what could trip a pruned re-run: coarse clock
granularity (equal send or receive times, i.e. equal slopes or
intercepts), duplicated messages, traffic that constrains nothing, and
shuffled rows.  As elsewhere the properties run over a seeded table
always and over hypothesis-generated cases when hypothesis is installed.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.clock_sync import (
    SyncMessageRecord,
    SyncTable,
    envelope_rows,
    estimate_all_bounds,
)
from repro.core.campaign import run_single_study
from repro.errors import ClockSynchronizationError
from repro.scenarios import DEFAULT_REGISTRY
from repro.sim.clock import ClockParameters, HardwareClock

from test_clock_bounds_golden import GOLDEN, pin

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ModuleNotFoundError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

GRANULARITIES = (0.0, 1e-6, 1e-4, 1e-3)


def messy_messages(seed: int, count: int, granularity: float) -> list[SyncMessageRecord]:
    """Two machines' getstamps exchanges with the reference, made messy."""
    rng = random.Random(seed)
    reference = HardwareClock(ClockParameters(granularity=granularity))
    messages: list[SyncMessageRecord] = []
    for machine in ("m1", "m2"):
        clock = HardwareClock(
            ClockParameters(
                offset=rng.uniform(-0.01, 0.01),
                rate=1.0 + rng.uniform(-200.0, 200.0) * 1e-6,
                granularity=granularity,
            )
        )
        for phase_start in (0.0, 1.0):
            for index in range(count):
                send = phase_start + index * 0.001
                receive = send + 150e-6 + rng.random() * 50e-6
                messages.append(
                    SyncMessageRecord("ref", machine, reference.read(send), clock.read(receive))
                )
                send += 0.0005
                receive = send + 150e-6 + rng.random() * 50e-6
                messages.append(
                    SyncMessageRecord(machine, "ref", clock.read(send), reference.read(receive))
                )
    messages += rng.sample(messages, k=len(messages) // 3)
    messages += [SyncMessageRecord("m1", "m2", rng.random(), rng.random()) for _ in range(3)]
    messages += [SyncMessageRecord("ref", "ref", rng.random(), rng.random()) for _ in range(2)]
    rng.shuffle(messages)
    return messages


def outcome(table: SyncTable, machines: list[str]) -> object:
    """Every bound and vertex as ``float.hex()``, or the error raised instead."""
    try:
        bounds = estimate_all_bounds(table, machines, "ref")
    except ClockSynchronizationError as error:
        return ("error", str(error))
    return [(machine, pin(found)) for machine, found in bounds.items()]


def is_subsequence(kept: list, whole: list) -> bool:
    remaining = iter(whole)
    return all(any(row == candidate for candidate in remaining) for row in kept)


def check_envelope_rows(seed: int, count: int, granularity: float, machines: list[str]) -> bool:
    """Check the three properties on one table; whether the table was solvable."""
    table = SyncTable.of(messy_messages(seed, count, granularity))
    kept = envelope_rows(table, machines, "ref")
    expected = outcome(table, machines)
    assert outcome(kept, machines) == expected
    assert kept.hosts == table.hosts
    assert is_subsequence(list(kept), list(table))
    again = envelope_rows(kept, machines, "ref")
    assert again == kept
    assert again.hosts == kept.hosts
    return not isinstance(expected, tuple)


def seeded_cases() -> list[tuple[int, int, float, list[str]]]:
    rng = random.Random(0xE4E1)
    return [
        (
            rng.randrange(10_000),
            rng.choice((1, 2, 5, 25)),
            rng.choice(GRANULARITIES),
            rng.choice((["m2", "ref", "m1"], ["m1"], ["ref", "m2"])),
        )
        for _ in range(60)
    ]


def test_envelope_rows_analyse_like_the_whole_table():
    solved = [check_envelope_rows(*case) for case in seeded_cases()]
    # The table reaches both solvable and refused tables.
    assert any(solved) and not all(solved)


def test_envelope_keeps_first_copy_of_duplicates():
    upper = SyncMessageRecord("ref", "m1", 1.0, 1.5)
    lower = SyncMessageRecord("m1", "ref", 1.5, 2.0)
    later = SyncMessageRecord("ref", "m1", 3.0, 3.5)
    answer = SyncMessageRecord("m1", "ref", 3.5, 4.0)
    # Copies of the first two come last: keeping them would reorder the rows.
    table = SyncTable.of([upper, lower, later, answer, upper, lower])
    assert list(envelope_rows(table, ["m1"], "ref")) == [upper, lower, later, answer]
    # Of equal-slope lines (equal send times) only the tightest is kept.
    tighter = SyncMessageRecord("ref", "m1", 1.0, 1.25)
    table = SyncTable.of([upper, lower, later, answer, tighter])
    assert list(envelope_rows(table, ["m1"], "ref")) == [lower, later, answer, tighter]


def test_unconstrained_and_unknown_rows_are_dropped():
    table = SyncTable.of(
        [
            SyncMessageRecord("m1", "m2", 0.1, 0.2),
            SyncMessageRecord("ref", "ref", 0.3, 0.4),
            SyncMessageRecord("ref", "ghost", 0.5, 0.6),
        ]
    )
    kept = envelope_rows(table, ["ref", "m1", "m2"], "ref")
    assert len(kept) == 0
    assert kept.hosts == table.hosts


@pytest.mark.parametrize("scenario_name", sorted(GOLDEN))
def test_clock_bounds_golden_reproduces_from_envelope_rows(scenario_name):
    expected = GOLDEN[scenario_name]
    study = DEFAULT_REGISTRY.get(scenario_name).build(
        experiments=len(expected["experiments"]), seed=expected["seed"]
    )
    for result, pinned in zip(run_single_study(study).experiments, expected["experiments"]):
        kept = envelope_rows(result.sync_messages, result.hosts, result.reference_host)
        assert len(kept) < len(result.sync_messages)
        bounds = estimate_all_bounds(kept, result.hosts, result.reference_host)
        assert {host: pin(found) for host, found in bounds.items()} == pinned


if HAVE_HYPOTHESIS:

    class TestHypothesisEnvelopeRows:
        @given(
            seed=st.integers(min_value=0, max_value=100_000),
            count=st.integers(min_value=1, max_value=30),
            granularity=st.sampled_from(GRANULARITIES),
            machines=st.sampled_from((("m2", "ref", "m1"), ("m1",), ("ref", "m2"))),
        )
        @settings(max_examples=60, deadline=None)
        def test_envelope_rows_analyse_like_the_whole_table(
            self, seed, count, granularity, machines
        ):
            check_envelope_rows(seed, count, granularity, list(machines))
