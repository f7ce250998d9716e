"""ANALYSIS-PHASE: old (LP + scalar projection) vs new (geometric + vectorized).

The analysis phase — clock-bound estimation plus global-timeline
construction — is the per-experiment bottleneck of a fused campaign.  This
bench runs both the pre-optimization implementation (four scipy linear
programs per machine, O(n^3) pairwise vertex enumeration, per-record
Python projection loop — reproduced faithfully below and cross-checked via
``estimate_clock_bounds_lp``) and the live implementation (exact geometric
envelope solver, single-pass message bucketing, numpy-broadcast
projection) on the same four-host experiment data, verifies they agree,
and asserts the required >= 5x improvement.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import print_table, round_trip_messages, usable_cpus
from repro.analysis.clock_sync import (
    SyncMessageRecord,
    estimate_all_bounds,
    estimate_clock_bounds_lp,
)
from repro.analysis.global_timeline import build_global_timeline
from repro.core.timeline import LocalTimeline
from repro.sim.clock import ClockParameters, HardwareClock

#: Four hosts: the reference plus three drifting machines (the issue's
#: "4-host scenario" shape: e.g. the three-machine election app plus ref).
HOSTS = ("ref", "hosta", "hostb", "hostc")
MESSAGES_PER_PHASE = 25
RECORDS_PER_MACHINE = 60
REPEATS_NEW = 20
REPEATS_LEGACY = 3


def build_four_host_experiment(
    seed: int = 7,
) -> tuple[list[SyncMessageRecord], dict[str, LocalTimeline]]:
    """Synthesize one four-host experiment's analysis-phase inputs."""
    rng = random.Random(seed)
    clocks = {"ref": HardwareClock(ClockParameters(offset=0.0, rate=1.0))}
    for host in HOSTS[1:]:
        clocks[host] = HardwareClock(
            ClockParameters(
                offset=rng.uniform(-0.005, 0.005),
                rate=1.0 + rng.uniform(-100, 100) * 1e-6,
            )
        )
    messages: list[SyncMessageRecord] = []
    for host in HOSTS[1:]:
        messages.extend(
            round_trip_messages(
                clocks["ref"],
                clocks[host],
                rng,
                other=host,
                phases=(0.0, 2.0),
                count=MESSAGES_PER_PHASE,
                delay=150e-6,
            )
        )
    timelines: dict[str, LocalTimeline] = {}
    for host in HOSTS:
        timeline = LocalTimeline(machine=f"machine-{host}")
        for index in range(RECORDS_PER_MACHINE):
            physical = 0.5 + index * (1.0 / RECORDS_PER_MACHINE)
            local = clocks[host].read(physical)
            if index % 10 == 9:
                timeline.add_fault_injection("fault", local, host)
            else:
                timeline.add_state_change(
                    f"event{index % 3}", f"state{index % 3}", local, host
                )
        timelines[host] = timeline
    return messages, timelines


# -- the pre-optimization implementation, reproduced faithfully ---------------


def legacy_estimate_all_bounds(messages, machines, reference):
    """Per-machine full-list rescan through the scipy LP path."""
    message_list = list(messages)
    return {
        machine: estimate_clock_bounds_lp(message_list, machine, reference)
        for machine in machines
    }


def legacy_project(bounds, local_time):
    """The historical scalar corner loop of ``project_to_reference``."""
    if bounds.vertices:
        corners = bounds.vertices
    else:
        corners = tuple(
            (alpha, beta)
            for alpha in (bounds.alpha_lower, bounds.alpha_upper)
            for beta in (bounds.beta_lower, bounds.beta_upper)
        )
    candidates = [(local_time - alpha) / beta for alpha, beta in corners]
    return min(candidates), max(candidates)


def legacy_analysis_phase(messages, timelines):
    bounds = legacy_estimate_all_bounds(messages, HOSTS, "ref")
    projected = []
    for timeline in timelines.values():
        for record in timeline.records:
            projected.append(legacy_project(bounds[record.host], record.time))
    return bounds, projected


def current_analysis_phase(messages, timelines):
    bounds = estimate_all_bounds(messages, HOSTS, "ref")
    return bounds, build_global_timeline(timelines, bounds)


def test_bench_analysis_phase_speedup():
    """Clock-sync + global-timeline: new implementation vs pre-PR baseline."""
    messages, timelines = build_four_host_experiment()

    start = time.perf_counter()
    for _ in range(REPEATS_NEW):
        bounds, timeline = current_analysis_phase(messages, timelines)
    new_elapsed = (time.perf_counter() - start) / REPEATS_NEW

    start = time.perf_counter()
    for _ in range(REPEATS_LEGACY):
        legacy_bounds, legacy_projected = legacy_analysis_phase(messages, timelines)
    legacy_elapsed = (time.perf_counter() - start) / REPEATS_LEGACY

    # Both implementations must agree before their timings are comparable.
    for host in HOSTS:
        assert bounds[host].alpha_lower == pytest.approx(
            legacy_bounds[host].alpha_lower, abs=1e-9
        )
        assert bounds[host].beta_upper == pytest.approx(
            legacy_bounds[host].beta_upper, abs=1e-9
        )
    assert len(timeline.entries) == len(legacy_projected)

    speedup = legacy_elapsed / new_elapsed if new_elapsed > 0 else float("inf")
    print_table(
        f"Analysis phase — {len(HOSTS)} hosts, "
        f"{len(messages)} sync messages, "
        f"{sum(len(t.records) for t in timelines.values())} timeline records",
        ["implementation", "per-experiment", "speedup"],
        [
            ["legacy (scipy LP + scalar loop)", f"{legacy_elapsed * 1e3:.2f} ms", ""],
            ["geometric + vectorized", f"{new_elapsed * 1e3:.2f} ms", f"{speedup:.1f}x"],
        ],
    )

    if usable_cpus() >= 2:
        assert speedup >= 5.0, (
            f"expected the analysis phase to be >= 5x faster than the "
            f"pre-optimization implementation, measured {speedup:.1f}x"
        )


def test_bench_analysis_phase_fixture(benchmark):
    """pytest-benchmark timing of the live analysis phase."""
    messages, timelines = build_four_host_experiment()
    benchmark(current_analysis_phase, messages, timelines)
