"""CLK-SYNC: tightness of the offline clock-synchronization bounds (Section 2.5).

The paper reports that on a LAN the difference between the lower and upper
global-time bounds of an event is "quite small".  This bench sweeps the
number of synchronization messages per mini-phase and reports the achieved
offset/drift bound widths and the mean per-event uncertainty on the global
timeline.
"""

import random
import time

import pytest

from conftest import print_table, round_trip_messages, usable_cpus
from repro.analysis.clock_sync import (
    SyncMessageRecord,
    estimate_clock_bounds,
    estimate_clock_bounds_lp,
)
from repro.experiments import clock_sync_quality
from repro.sim.clock import ClockParameters, HardwareClock


@pytest.fixture(scope="module")
def quality():
    return clock_sync_quality(message_counts=(5, 10, 25, 50), seed=8)


def test_bench_clock_sync(benchmark, quality):
    """Time a small sweep and print the bound-width table."""
    benchmark(clock_sync_quality, message_counts=(10,), seed=1)
    print_table(
        "Section 2.5 — clock-synchronization bound tightness",
        ["msgs/phase", "mean alpha width (us)", "mean beta width", "mean event uncertainty (us)"],
        [
            [q.messages_per_phase,
             f"{q.mean_alpha_width * 1e6:.1f}",
             f"{q.mean_beta_width:.2e}",
             f"{q.mean_event_uncertainty * 1e6:.1f}"]
            for q in quality
        ],
    )


def test_event_uncertainty_is_sub_millisecond(quality):
    """On the simulated LAN the per-event uncertainty stays well below 1 ms."""
    for q in quality:
        assert q.mean_event_uncertainty < 0.001


def test_more_messages_do_not_hurt(quality):
    assert quality[-1].mean_alpha_width <= quality[0].mean_alpha_width * 1.5


def make_200_message_set(seed: int = 5) -> list[SyncMessageRecord]:
    """A 200-message bidirectional constraint set between two hosts."""
    reference = HardwareClock(ClockParameters(offset=0.0, rate=1.0))
    other = HardwareClock(ClockParameters(offset=0.002, rate=1.00004))
    # 50 round trips per mini-phase, 2 phases, 2 messages each = 200.
    return round_trip_messages(reference, other, random.Random(seed), count=50)


@pytest.mark.skipif(
    usable_cpus() < 2,
    reason="solver comparison timings are unreliable on single-CPU machines",
)
def test_geometric_solver_beats_scipy_lp():
    """The exact geometric solver is >= 3x faster than the LP cross-check."""
    messages = make_200_message_set()

    start = time.perf_counter()
    for _ in range(20):
        geometric = estimate_clock_bounds(messages, "other", "ref")
    geometric_elapsed = (time.perf_counter() - start) / 20

    start = time.perf_counter()
    for _ in range(3):
        lp = estimate_clock_bounds_lp(messages, "other", "ref")
    lp_elapsed = (time.perf_counter() - start) / 3

    # Same answer first, then the timing claim.
    assert geometric.alpha_lower == pytest.approx(lp.alpha_lower, abs=1e-9)
    assert geometric.alpha_upper == pytest.approx(lp.alpha_upper, abs=1e-9)
    assert geometric.beta_lower == pytest.approx(lp.beta_lower, abs=1e-9)
    assert geometric.beta_upper == pytest.approx(lp.beta_upper, abs=1e-9)

    speedup = lp_elapsed / geometric_elapsed if geometric_elapsed > 0 else float("inf")
    print_table(
        "Clock-sync solver — 200-message constraint set",
        ["solver", "per solve", "speedup"],
        [
            ["scipy LP (4 x linprog + pairwise vertices)", f"{lp_elapsed * 1e3:.2f} ms", ""],
            ["geometric envelope", f"{geometric_elapsed * 1e3:.3f} ms", f"{speedup:.0f}x"],
        ],
    )
    assert speedup >= 3.0, (
        f"expected the geometric solver to be >= 3x faster than the scipy LP "
        f"path on 200 messages, measured {speedup:.1f}x"
    )
