"""Tests for offline clock synchronization (bounds always contain the truth)."""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.clock_sync import (
    ClockBounds,
    SyncMessageRecord,
    SyncTable,
    estimate_all_bounds,
    estimate_clock_bounds,
    select_reference_host,
)
from repro.errors import ClockSynchronizationError
from repro.sim.clock import ClockParameters, HardwareClock


def make_sync_messages(
    reference_clock,
    machine_clock,
    phases=((0.0, 20), (1.0, 20)),
    delay=200e-6,
    jitter=50e-6,
    seed=1,
):
    """Simulate getstamps exchanges between two hosts with known clocks."""
    import random

    rng = random.Random(seed)
    messages = []
    for phase_start, count in phases:
        for index in range(count):
            send_physical = phase_start + index * 0.001
            recv_physical = send_physical + delay + rng.random() * jitter
            messages.append(
                SyncMessageRecord(
                    sender="ref",
                    receiver="other",
                    send_time=reference_clock.read(send_physical),
                    receive_time=machine_clock.read(recv_physical),
                )
            )
            send_physical = phase_start + index * 0.001 + 0.0005
            recv_physical = send_physical + delay + rng.random() * jitter
            messages.append(
                SyncMessageRecord(
                    sender="other",
                    receiver="ref",
                    send_time=machine_clock.read(send_physical),
                    receive_time=reference_clock.read(recv_physical),
                )
            )
    return messages


class TestClockBounds:
    def test_identity(self):
        bounds = ClockBounds.identity()
        assert bounds.alpha_width == 0.0
        assert bounds.beta_width == 0.0
        assert bounds.contains(0.0, 1.0)
        assert bounds.project_to_reference(5.0) == (pytest.approx(5.0), pytest.approx(5.0))

    def test_projection_with_rectangle_corners(self):
        bounds = ClockBounds(alpha_lower=-0.001, alpha_upper=0.001,
                             beta_lower=0.9999, beta_upper=1.0001)
        lower, upper = bounds.project_to_reference(10.0)
        assert lower < 10.0 < upper
        assert upper - lower == pytest.approx(
            (10.0 + 0.001) / 0.9999 - (10.0 - 0.001) / 1.0001
        )

    def test_projection_uses_polygon_vertices_when_present(self):
        rectangle = ClockBounds(-0.001, 0.001, 0.999, 1.001)
        polygon = ClockBounds(-0.001, 0.001, 0.999, 1.001,
                              vertices=((0.0005, 1.0), (-0.0005, 1.0)))
        loose = rectangle.project_to_reference(100.0)
        tight = polygon.project_to_reference(100.0)
        assert (tight[1] - tight[0]) < (loose[1] - loose[0])

    def test_midpoints(self):
        bounds = ClockBounds(0.0, 2.0, 0.5, 1.5)
        assert bounds.alpha_midpoint == pytest.approx(1.0)
        assert bounds.beta_midpoint == pytest.approx(1.0)


class TestReferenceSelection:
    def test_fastest_clock_selected(self):
        rates = {"hosta": 1.00001, "hostb": 1.00005, "hostc": 0.99998}
        assert select_reference_host(rates) == "hostb"

    def test_empty_rejected(self):
        with pytest.raises(ClockSynchronizationError):
            select_reference_host({})

    def test_deterministic_tie_break(self):
        rates = {"b": 1.0, "a": 1.0}
        assert select_reference_host(rates) == select_reference_host(dict(reversed(rates.items())))


class TestEstimation:
    def test_reference_machine_gets_identity(self):
        bounds = estimate_clock_bounds([], "ref", "ref")
        assert bounds == ClockBounds.identity()

    def test_bounds_contain_true_alpha_beta(self):
        reference = HardwareClock(ClockParameters(offset=0.002, rate=1.00004))
        other = HardwareClock(ClockParameters(offset=-0.003, rate=0.99996))
        messages = make_sync_messages(reference, other)
        bounds = estimate_clock_bounds(messages, "other", "ref")
        alpha, beta = other.relative_to(reference)
        assert bounds.contains(alpha, beta)

    def test_bounds_are_tight_on_a_lan(self):
        reference = HardwareClock(ClockParameters(offset=0.001, rate=1.00002))
        other = HardwareClock(ClockParameters(offset=-0.004, rate=0.99997))
        messages = make_sync_messages(reference, other, delay=150e-6, jitter=30e-6)
        bounds = estimate_clock_bounds(messages, "other", "ref")
        assert bounds.alpha_width < 0.002
        assert bounds.beta_width < 0.01

    def test_projection_contains_true_reference_time(self):
        reference = HardwareClock(ClockParameters(offset=0.002, rate=1.00004))
        other = HardwareClock(ClockParameters(offset=-0.003, rate=0.99996))
        messages = make_sync_messages(reference, other)
        bounds = estimate_clock_bounds(messages, "other", "ref")
        for physical in (0.1, 0.5, 0.9):
            local = other.read(physical)
            true_reference = reference.read(physical)
            lower, upper = bounds.project_to_reference(local)
            assert lower - 1e-9 <= true_reference <= upper + 1e-9

    def test_more_messages_do_not_widen_bounds(self):
        reference = HardwareClock(ClockParameters(offset=0.0, rate=1.00001))
        other = HardwareClock(ClockParameters(offset=0.001, rate=0.99999))
        few = make_sync_messages(reference, other, phases=((0.0, 5), (1.0, 5)))
        many = make_sync_messages(reference, other, phases=((0.0, 40), (1.0, 40)))
        bounds_few = estimate_clock_bounds(few, "other", "ref")
        bounds_many = estimate_clock_bounds(many, "other", "ref")
        assert bounds_many.alpha_width <= bounds_few.alpha_width + 1e-12
        assert bounds_many.beta_width <= bounds_few.beta_width + 1e-12

    def test_unidirectional_messages_rejected_as_unbounded(self):
        reference = HardwareClock()
        other = HardwareClock(ClockParameters(offset=0.001))
        messages = [
            message
            for message in make_sync_messages(reference, other)
            if message.sender == "ref"
        ]
        with pytest.raises(ClockSynchronizationError):
            estimate_clock_bounds(messages, "other", "ref")

    def test_no_messages_rejected(self):
        with pytest.raises(ClockSynchronizationError):
            estimate_clock_bounds([], "other", "ref")

    def test_estimate_all_bounds(self):
        reference = HardwareClock()
        other = HardwareClock(ClockParameters(offset=0.001, rate=1.00001))
        messages = make_sync_messages(reference, other)
        bounds = estimate_all_bounds(messages, ["ref", "other"], "ref")
        assert bounds["ref"] == ClockBounds.identity()
        assert bounds["other"].alpha_width > 0


class TestSyncTable:
    """The table is a sequence of records to everyone but the solver and the store."""

    RECORDS = [
        SyncMessageRecord("ref", "other", 0.25, 0.5),
        SyncMessageRecord("other", "ref", 0.75, -0.0),
        SyncMessageRecord("third", "other", 2.0**-52, 1e300),
        SyncMessageRecord("ref", "ref", 1.0, 1.0),
    ]

    def test_sequence_protocol(self):
        table = SyncTable.of(self.RECORDS)
        assert len(table) == 4 and table
        assert list(table) == self.RECORDS
        assert [table[index] for index in range(4)] == self.RECORDS
        assert table[-1] == self.RECORDS[-1]
        assert table[1:3] == self.RECORDS[1:3]
        assert self.RECORDS[2] in table
        with pytest.raises(IndexError):
            table[4]
        # Records are built on demand from native values, not numpy scalars.
        assert type(table[2].send_time) is float and type(table[2].sender) is str

    def test_empty_table_is_falsy_and_equals_the_empty_list(self):
        assert not SyncTable() and len(SyncTable()) == 0
        assert SyncTable() == [] and [] == SyncTable()
        assert list(SyncTable()) == []

    def test_equality_with_lists_and_tables(self):
        table = SyncTable.of(self.RECORDS)
        assert table == self.RECORDS and self.RECORDS == table
        assert table == SyncTable.of(reversed(list(reversed(self.RECORDS))))
        assert table != self.RECORDS[:-1]
        assert table != list(reversed(self.RECORDS))
        assert table != "not messages"
        # Host codes are a private matter: same records, different pools.
        recoded = SyncTable(["x", "third", "other", "ref"])
        for record in self.RECORDS:
            recoded.append(record.sender, record.receiver, record.send_time, record.receive_time)
        assert recoded == table and recoded.hosts != table.hosts

    def test_of_returns_a_table_unchanged(self):
        table = SyncTable.of(self.RECORDS)
        assert SyncTable.of(table) is table

    def test_codes_follow_first_use_and_unknown_hosts_match_no_row(self):
        table = SyncTable.of(self.RECORDS)
        assert table.hosts == ["ref", "other", "third"]
        assert [table.code(host) for host in ("ref", "other", "third")] == [0, 1, 2]
        assert table.code("nobody") == -1
        assert not (np.asarray(table.sender) == -1).any()

    def test_pickle_round_trip_keeps_columns(self):
        table = SyncTable.of(self.RECORDS)
        clone = pickle.loads(pickle.dumps(table))
        assert clone == table and clone.hosts == table.hosts
        assert clone.send_time.tobytes() == table.send_time.tobytes()
        # Column views of a decoded block pickle too (as their own copies).
        views = SyncTable(
            list(table.hosts),
            np.asarray(table.sender),
            np.asarray(table.receiver),
            np.asarray(table.send_time),
            np.asarray(table.receive_time),
        )
        assert pickle.loads(pickle.dumps(views)) == self.RECORDS

    def test_a_result_can_be_slimmed_to_a_plain_empty_list(self):
        from repro.core.campaign import ExperimentResult

        result = ExperimentResult(
            study="s", index=0, seed=1, local_timelines={},
            sync_messages=SyncTable.of(self.RECORDS), hosts=("ref", "other"),
            reference_host="ref", host_clock_parameters={}, completed=True,
            aborted=False, abort_reason=None, duration=0.0, stats={},
        )
        slim = replace(result, sync_messages=[])
        assert not slim.sync_messages and slim.sync_messages == SyncTable()
        assert result.sync_messages == self.RECORDS

    def test_solver_takes_tables_and_plain_iterables_alike(self):
        reference = HardwareClock()
        other = HardwareClock(ClockParameters(offset=0.001, rate=1.00001))
        messages = make_sync_messages(reference, other)
        from_table = estimate_all_bounds(SyncTable.of(messages), ["ref", "other"], "ref")
        assert from_table == estimate_all_bounds(iter(messages), ("ref", "other"), "ref")
        assert from_table["other"] == estimate_clock_bounds(messages, "other", "ref")


@settings(max_examples=25, deadline=None)
@given(
    offset=st.floats(min_value=-0.01, max_value=0.01),
    drift_ppm=st.floats(min_value=-200, max_value=200),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_bounds_always_contain_truth(offset, drift_ppm, seed):
    """Whatever the true offset/drift, the estimated bounds must contain it."""
    reference = HardwareClock(ClockParameters(offset=0.0, rate=1.0))
    other = HardwareClock(ClockParameters(offset=offset, rate=1.0 + drift_ppm * 1e-6))
    messages = make_sync_messages(reference, other, seed=seed)
    bounds = estimate_clock_bounds(messages, "other", "ref")
    alpha, beta = other.relative_to(reference)
    assert bounds.contains(alpha, beta)
    # The projection of any event time must also contain the true value.
    local = other.read(0.5)
    lower, upper = bounds.project_to_reference(local)
    assert lower - 1e-9 <= reference.read(0.5) <= upper + 1e-9
