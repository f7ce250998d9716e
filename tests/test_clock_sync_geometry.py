"""Equivalence of the geometric clock-sync solver and the scipy LP path.

The exact geometric solver (:func:`repro.analysis.clock_sync.
estimate_clock_bounds`) must be indistinguishable from the historical
linear-programming implementation (:func:`estimate_clock_bounds_lp`, kept
as a test-only cross-check): the alpha/beta extremes agree within 1e-9,
the polygon vertex sets are identical after near-duplicate dedup, and both
raise :class:`ClockSynchronizationError` on unbounded or infeasible
constraint sets.

The solver's input side is columnar (:class:`SyncTable`, boolean masks,
``numpy.lexsort``); ``TestColumnarInputSide`` holds it to the tuple-based
ordering it replaced and to one answer whatever the table looks like:
shuffled, with duplicated messages, equal slopes, traffic between other
host pairs, reference-to-reference messages.

Following the conventions of ``tests/test_statistics_properties.py``, the
properties run twice: against a deterministic table of seeded random
sync-message sets (always), and against hypothesis-generated ones when
``hypothesis`` is installed.  Both paths share the same check functions.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.analysis.clock_sync import (
    SyncMessageRecord,
    SyncTable,
    _dedupe_vertices,
    _feasible_vertices,
    _min_envelope,
    estimate_all_bounds,
    estimate_clock_bounds,
    estimate_clock_bounds_lp,
)
from repro.errors import ClockSynchronizationError
from repro.sim.clock import ClockParameters, HardwareClock

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ModuleNotFoundError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

#: Agreement tolerance between the two solvers (absolute, per coordinate).
TOLERANCE = 1e-9


def make_messages(
    offset: float,
    drift_ppm: float,
    seed: int,
    count: int = 15,
    delay: float = 200e-6,
    jitter: float = 50e-6,
) -> list[SyncMessageRecord]:
    """Bidirectional getstamps exchanges between two hosts with known clocks."""
    reference = HardwareClock(ClockParameters(offset=0.0, rate=1.0))
    other = HardwareClock(ClockParameters(offset=offset, rate=1.0 + drift_ppm * 1e-6))
    rng = random.Random(seed)
    messages: list[SyncMessageRecord] = []
    for phase_start in (0.0, 1.0):
        for index in range(count):
            send = phase_start + index * 0.001
            receive = send + delay + rng.random() * jitter
            messages.append(
                SyncMessageRecord(
                    sender="ref",
                    receiver="other",
                    send_time=reference.read(send),
                    receive_time=other.read(receive),
                )
            )
            send = phase_start + index * 0.001 + 0.0005
            receive = send + delay + rng.random() * jitter
            messages.append(
                SyncMessageRecord(
                    sender="other",
                    receiver="ref",
                    send_time=other.read(send),
                    receive_time=reference.read(receive),
                )
            )
    return messages


# ---------------------------------------------------------------------------
# Shared check functions
# ---------------------------------------------------------------------------


def check_solver_equivalence(messages: list[SyncMessageRecord]) -> None:
    geometric = estimate_clock_bounds(messages, "other", "ref")
    lp = estimate_clock_bounds_lp(messages, "other", "ref")
    assert math.isclose(geometric.alpha_lower, lp.alpha_lower, abs_tol=TOLERANCE)
    assert math.isclose(geometric.alpha_upper, lp.alpha_upper, abs_tol=TOLERANCE)
    assert math.isclose(geometric.beta_lower, lp.beta_lower, abs_tol=TOLERANCE)
    assert math.isclose(geometric.beta_upper, lp.beta_upper, abs_tol=TOLERANCE)
    # Identical vertex sets: both solvers dedupe and order canonically.
    assert len(geometric.vertices) == len(lp.vertices), (
        f"vertex count differs: geometric {geometric.vertices} vs LP {lp.vertices}"
    )
    for (g_alpha, g_beta), (l_alpha, l_beta) in zip(geometric.vertices, lp.vertices):
        assert math.isclose(g_alpha, l_alpha, abs_tol=TOLERANCE)
        assert math.isclose(g_beta, l_beta, abs_tol=TOLERANCE)


def check_bounds_contain_truth(messages: list[SyncMessageRecord], offset, drift_ppm) -> None:
    reference = HardwareClock(ClockParameters(offset=0.0, rate=1.0))
    other = HardwareClock(ClockParameters(offset=offset, rate=1.0 + drift_ppm * 1e-6))
    bounds = estimate_clock_bounds(messages, "other", "ref")
    alpha, beta = other.relative_to(reference)
    assert bounds.contains(alpha, beta)
    local = other.read(0.5)
    lower, upper = bounds.project_to_reference(local)
    assert lower - 1e-9 <= reference.read(0.5) <= upper + 1e-9


def reference_min_envelope(lines):
    """The set-deduplicating list-of-tuples sweep of the original solver (the oracle)."""
    ordered = sorted(set(lines), key=lambda line: (-line[0], line[1]))
    filtered = []
    for slope, intercept in ordered:
        if filtered and filtered[-1][0] == slope:
            continue  # same slope, larger intercept: never minimal
        filtered.append((slope, intercept))
    hull, cuts = [], []
    for line in filtered:
        while True:
            if not hull:
                hull.append(line)
                break
            top = hull[-1]
            crossing = (line[1] - top[1]) / (top[0] - line[0])
            if cuts and crossing <= cuts[-1]:
                hull.pop()
                cuts.pop()
                continue
            hull.append(line)
            cuts.append(crossing)
            break
    return hull, cuts


def triples(slopes, intercepts):
    """Lines in ``_min_envelope``'s input form: ``(-slope, intercept, row)``."""
    return [(-slope, intercept, row) for row, (slope, intercept) in enumerate(zip(slopes, intercepts))]


def check_envelope_matches_tuple_sweep(seed: int, count: int) -> None:
    """Same hull and cuts, bit for bit, on lines rich in ties and repeats."""
    rng = random.Random(seed)
    # Few distinct slopes and intercepts: duplicates and equal-slope runs.
    slopes = [
        rng.choice((-1.5, -1.0, -0.25, 0.0, 0.5, 2.0, rng.uniform(-2, 2)))
        for _ in range(count)
    ]
    intercepts = [rng.choice((-1.0, 0.0, 0.125, rng.uniform(-1, 1))) for _ in range(count)]
    hull, cuts, rows = _min_envelope(triples(slopes, intercepts))
    assert (hull, cuts) == reference_min_envelope(list(zip(slopes, intercepts)))
    # Each active line comes with the input index of its first copy.
    lines = list(zip(slopes, intercepts))
    assert rows == [lines.index(line) for line in hull]


def with_other_named(messages: list[SyncMessageRecord], name: str) -> list[SyncMessageRecord]:
    return [
        SyncMessageRecord(
            name if m.sender == "other" else m.sender,
            name if m.receiver == "other" else m.receiver,
            m.send_time,
            m.receive_time,
        )
        for m in messages
    ]


def check_all_bounds_ignore_table_shape(
    offset: float, drift_ppm: float, seed: int, count: int
) -> None:
    """``estimate_all_bounds`` on a messy table == per-machine solves of the clean lists."""
    rng = random.Random(seed)
    clean = {
        "m1": with_other_named(make_messages(offset, drift_ppm, seed, count), "m1"),
        "m2": with_other_named(make_messages(-offset, drift_ppm / 2, seed + 1, count), "m2"),
    }
    messy = clean["m1"] + clean["m2"]
    # Duplicated messages.
    messy += rng.sample(messy, k=len(messy) // 3)
    for machine in ("m1", "m2"):
        for m in rng.sample(clean[machine], k=4):
            if m.sender == "ref":
                # Equal send time (equal slope), later reception: dominated.
                messy.append(
                    SyncMessageRecord("ref", machine, m.send_time, m.receive_time + 1e-4)
                )
            else:
                # Equal reception time (equal slope), earlier send: dominated.
                messy.append(
                    SyncMessageRecord(machine, "ref", m.send_time - 1e-4, m.receive_time)
                )
    # Traffic that constrains nothing: between non-reference hosts, reference to itself.
    messy += [SyncMessageRecord("m1", "m2", rng.random(), rng.random()) for _ in range(5)]
    messy += [SyncMessageRecord("m2", "m1", rng.random(), rng.random()) for _ in range(5)]
    messy += [SyncMessageRecord("ref", "ref", rng.random(), rng.random()) for _ in range(3)]
    rng.shuffle(messy)

    together = estimate_all_bounds(SyncTable.of(messy), ["m2", "ref", "m1"], "ref")
    assert list(together) == ["m2", "ref", "m1"]
    assert together["ref"] == estimate_clock_bounds([], "ref", "ref")
    for machine in ("m1", "m2"):
        assert together[machine] == estimate_clock_bounds(clean[machine], machine, "ref")
        assert together[machine] == estimate_clock_bounds(messy, machine, "ref")
    # A host named only in ``machines`` has no constraints at all.
    with pytest.raises(
        ClockSynchronizationError, match="no synchronization messages between 'ghost'"
    ):
        estimate_all_bounds(SyncTable.of(messy), ["m1", "ghost"], "ref")


def seeded_cases() -> list[tuple[float, float, int, int]]:
    """(offset, drift_ppm, seed, count) table covering the realistic range."""
    rng = random.Random(0x51C0)
    cases: list[tuple[float, float, int, int]] = []
    for index in range(30):
        cases.append(
            (
                rng.uniform(-0.01, 0.01),
                rng.uniform(-200.0, 200.0),
                rng.randrange(10_000),
                rng.choice((3, 8, 15, 40)),
            )
        )
    return cases


# ---------------------------------------------------------------------------
# Deterministic seeded-random path (always runs)
# ---------------------------------------------------------------------------


class TestSeededEquivalence:
    def test_extremes_and_vertices_match_lp(self):
        for offset, drift_ppm, seed, count in seeded_cases():
            check_solver_equivalence(make_messages(offset, drift_ppm, seed, count))

    def test_bounds_contain_truth(self):
        for offset, drift_ppm, seed, count in seeded_cases():
            check_bounds_contain_truth(
                make_messages(offset, drift_ppm, seed, count), offset, drift_ppm
            )


class TestColumnarInputSide:
    def test_envelope_matches_the_tuple_sweep(self):
        for seed in range(40):
            check_envelope_matches_tuple_sweep(seed, count=1 + seed * 3)

    def test_all_bounds_ignore_table_shape(self):
        for offset, drift_ppm, seed, count in seeded_cases():
            check_all_bounds_ignore_table_shape(offset, drift_ppm, seed, max(count, 4))

    def test_signed_zero_slopes_are_one_run(self):
        # 0.0 and -0.0 are the same slope: one line survives, the lower one.
        hull, cuts, rows = _min_envelope(triples([0.0, -0.0, 1.0], [2.0, 1.0, 0.0]))
        assert (hull, cuts) == reference_min_envelope([(0.0, 2.0), (-0.0, 1.0), (1.0, 0.0)])
        assert hull == [(1.0, 0.0), (0.0, 1.0)]
        assert rows == [2, 1]


# ---------------------------------------------------------------------------
# Registry scenarios: the solvers agree on every real workload's messages
# ---------------------------------------------------------------------------


class TestRegistryScenarioEquivalence:
    def test_solvers_agree_on_every_registered_scenario(self):
        from repro.core.campaign import run_single_study
        from repro.scenarios import default_registry

        registry = default_registry()
        for offset, name in enumerate(registry.names()):
            study = registry.get(name).build(experiments=1, seed=31 + offset)
            result = run_single_study(study).experiments[0]
            for host in result.hosts:
                geometric = estimate_clock_bounds(
                    result.sync_messages, host, result.reference_host
                )
                lp = estimate_clock_bounds_lp(
                    result.sync_messages, host, result.reference_host
                )
                assert math.isclose(
                    geometric.alpha_lower, lp.alpha_lower, abs_tol=TOLERANCE
                ), name
                assert math.isclose(
                    geometric.alpha_upper, lp.alpha_upper, abs_tol=TOLERANCE
                ), name
                assert math.isclose(
                    geometric.beta_lower, lp.beta_lower, abs_tol=TOLERANCE
                ), name
                assert math.isclose(
                    geometric.beta_upper, lp.beta_upper, abs_tol=TOLERANCE
                ), name
                assert len(geometric.vertices) == len(lp.vertices), name
                for geometric_vertex, lp_vertex in zip(geometric.vertices, lp.vertices):
                    assert math.isclose(
                        geometric_vertex[0], lp_vertex[0], abs_tol=TOLERANCE
                    ), name
                    assert math.isclose(
                        geometric_vertex[1], lp_vertex[1], abs_tol=TOLERANCE
                    ), name


# ---------------------------------------------------------------------------
# Degenerate inputs: both solvers must fail the same way
# ---------------------------------------------------------------------------


#: The wording callers (and ``AnalysisError`` reports) have always seen.
UNBOUNDED_WORDING = (
    "clock bounds for 'other' are unbounded; synchronization messages must "
    "flow in both directions before and after the experiment"
)


class TestDegenerateEquivalence:
    def test_unbounded_unidirectional_messages(self):
        messages = [
            message
            for message in make_messages(0.001, 50.0, seed=3)
            if message.sender == "ref"
        ]
        with pytest.raises(ClockSynchronizationError, match=UNBOUNDED_WORDING):
            estimate_clock_bounds(messages, "other", "ref")
        with pytest.raises(ClockSynchronizationError):
            estimate_clock_bounds_lp(messages, "other", "ref")

    def test_unbounded_reverse_direction_only(self):
        messages = [
            message
            for message in make_messages(0.001, 50.0, seed=3)
            if message.sender == "other"
        ]
        with pytest.raises(ClockSynchronizationError, match=UNBOUNDED_WORDING):
            estimate_clock_bounds(messages, "other", "ref")
        with pytest.raises(ClockSynchronizationError):
            estimate_clock_bounds_lp(messages, "other", "ref")

    def test_infeasible_contradictory_messages(self):
        # alpha + beta <= 0 together with alpha + beta >= 1 cannot hold.
        messages = [
            SyncMessageRecord("ref", "other", send_time=1.0, receive_time=0.0),
            SyncMessageRecord("other", "ref", send_time=1.0, receive_time=1.0),
        ]
        with pytest.raises(
            ClockSynchronizationError,
            match=r"clock-bound estimation for 'other' failed: the synchronization "
            r"constraints are mutually inconsistent \(infeasible\)",
        ):
            estimate_clock_bounds(messages, "other", "ref")
        with pytest.raises(ClockSynchronizationError):
            estimate_clock_bounds_lp(messages, "other", "ref")

    def test_no_messages(self):
        with pytest.raises(
            ClockSynchronizationError,
            match="no synchronization messages between 'other' and reference 'ref'",
        ):
            estimate_clock_bounds([], "other", "ref")
        with pytest.raises(ClockSynchronizationError):
            estimate_clock_bounds_lp([], "other", "ref")


# ---------------------------------------------------------------------------
# Vertex dedup (near-concurrent constraint lines)
# ---------------------------------------------------------------------------


def reference_dedupe_vertices(points, tolerance=1e-9):
    """The O(k^2) dedup that compares each point with every kept one (the oracle)."""
    kept = []
    for alpha, beta in sorted(points, key=lambda point: (point[1], point[0])):
        if not any(
            abs(alpha - kept_alpha) <= tolerance * max(1.0, abs(alpha), abs(kept_alpha))
            and abs(beta - kept_beta) <= tolerance * max(1.0, abs(beta), abs(kept_beta))
            for kept_alpha, kept_beta in kept
        ):
            kept.append((alpha, beta))
    return tuple(kept)


def dedupe_cloud(seed: int) -> list[tuple[float, float]]:
    """Clustered points: near and exact duplicates, betas from -1e3 to 1e3."""
    rng = random.Random(seed)
    scale = rng.choice((1e-3, 1.0, 1e3))
    points = []
    for _ in range(rng.randrange(1, 8)):
        alpha, beta = rng.uniform(-scale, scale), rng.uniform(-scale, scale)
        for _ in range(rng.randrange(1, 6)):
            noise = rng.choice((0.0, 1e-13, 1e-10, 1e-9, 2e-9, 1e-6))
            points.append(
                (
                    alpha + rng.uniform(-noise, noise) * max(1.0, abs(alpha)),
                    beta + rng.uniform(-noise, noise) * max(1.0, abs(beta)),
                )
            )
    points += rng.sample(points, rng.randrange(len(points) + 1))  # exact repeats
    rng.shuffle(points)
    return points


class TestVertexDedup:
    def test_dedupe_matches_the_quadratic_oracle(self):
        for seed in range(300):
            points = dedupe_cloud(seed)
            assert _dedupe_vertices(points) == reference_dedupe_vertices(points), seed

    def test_near_duplicate_vertices_are_merged(self):
        points = [
            (0.001, 1.0),
            (0.001 + 1e-13, 1.0 - 1e-13),
            (0.001 - 1e-13, 1.0 + 1e-13),
            (0.002, 1.0),
        ]
        deduped = _dedupe_vertices(points)
        assert len(deduped) == 2

    def test_feasible_vertices_dedupes_concurrent_lines(self):
        import numpy as np

        # Three upper constraints through (0, 1) within floating-point
        # noise of each other, plus two lower constraints: the pairwise
        # enumeration would emit a cloud of near-identical corners.
        a_ub = np.array(
            [
                [1.0, 1.0],
                [1.0, 1.0 + 1e-12],
                [1.0, 1.0 - 1e-12],
                [-1.0, -0.5],
                [-1.0, -2.0],
            ]
        )
        b_ub = np.array([1.0, 1.0, 1.0, 0.2, -0.5])
        vertices = _feasible_vertices(a_ub, b_ub)
        # Two interior corners plus the two beta-floor corners (this
        # polygon extends down to beta = 0, so the floor clips it) — the
        # nine near-identical pairwise intersections collapse to these.
        assert len(vertices) == 4
        for index, left in enumerate(vertices):
            for right in vertices[index + 1 :]:
                assert abs(left[0] - right[0]) > 1e-10 or abs(left[1] - right[1]) > 1e-10

    def test_solvers_agree_on_nearly_concurrent_constraints(self):
        # Many messages with identical timestamps except jitter below the
        # dedup tolerance produce nearly concurrent constraint lines.
        messages = []
        for wiggle in (0.0, 1e-13, 2e-13):
            messages.append(
                SyncMessageRecord("ref", "other", 0.0, 0.0002 + wiggle)
            )
            messages.append(
                SyncMessageRecord("other", "ref", 0.0005 + wiggle, 0.0009)
            )
            messages.append(
                SyncMessageRecord("ref", "other", 1.0, 1.0002 + wiggle)
            )
            messages.append(
                SyncMessageRecord("other", "ref", 1.0005 + wiggle, 1.0009)
            )
        check_solver_equivalence(messages)


# ---------------------------------------------------------------------------
# Hypothesis path (runs when hypothesis is installed)
# ---------------------------------------------------------------------------


if HAVE_HYPOTHESIS:

    class TestHypothesisEquivalence:
        @given(
            offset=st.floats(min_value=-0.01, max_value=0.01),
            drift_ppm=st.floats(min_value=-200, max_value=200),
            seed=st.integers(min_value=0, max_value=10_000),
            count=st.integers(min_value=2, max_value=25),
        )
        @settings(max_examples=40, deadline=None)
        def test_extremes_and_vertices_match_lp(self, offset, drift_ppm, seed, count):
            check_solver_equivalence(make_messages(offset, drift_ppm, seed, count))

        @given(
            seed=st.integers(min_value=0, max_value=10_000),
            count=st.integers(min_value=1, max_value=120),
        )
        @settings(max_examples=40, deadline=None)
        def test_envelope_matches_the_tuple_sweep(self, seed, count):
            check_envelope_matches_tuple_sweep(seed, count)

        @given(
            offset=st.floats(min_value=-0.01, max_value=0.01),
            drift_ppm=st.floats(min_value=-200, max_value=200),
            seed=st.integers(min_value=0, max_value=10_000),
            count=st.integers(min_value=4, max_value=25),
        )
        @settings(max_examples=40, deadline=None)
        def test_all_bounds_ignore_table_shape(self, offset, drift_ppm, seed, count):
            check_all_bounds_ignore_table_shape(offset, drift_ppm, seed, count)

        @given(
            offset=st.floats(min_value=-0.01, max_value=0.01),
            drift_ppm=st.floats(min_value=-200, max_value=200),
            seed=st.integers(min_value=0, max_value=10_000),
        )
        @settings(max_examples=40, deadline=None)
        def test_bounds_contain_truth(self, offset, drift_ppm, seed):
            check_bounds_contain_truth(
                make_messages(offset, drift_ppm, seed), offset, drift_ppm
            )
