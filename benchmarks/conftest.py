"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one figure or evaluation of the paper
and prints the series it produces.  The pytest-benchmark fixture times the
representative computation of each artifact.  Nothing here writes a file:
the repository's perf record is the end-to-end benchmark under
``benchmarks/e2e/``.
"""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def round_trip_messages(
    reference_clock,
    other_clock,
    rng,
    *,
    reference: str = "ref",
    other: str = "other",
    phases=(0.0, 1.0),
    count: int = 50,
    delay: float = 200e-6,
    jitter: float = 50e-6,
):
    """Bidirectional getstamps round trips between two clocked hosts.

    The shared generator for every bench that needs a synthetic sync-phase
    message set: ``count`` round trips (two messages each) per mini-phase.
    """
    from repro.analysis.clock_sync import SyncMessageRecord

    messages = []
    for phase_start in phases:
        for index in range(count):
            send = phase_start + index * 0.001
            receive = send + delay + rng.random() * jitter
            messages.append(
                SyncMessageRecord(
                    reference, other,
                    reference_clock.read(send), other_clock.read(receive),
                )
            )
            send += 0.0005
            receive = send + delay + rng.random() * jitter
            messages.append(
                SyncMessageRecord(
                    other, reference,
                    other_clock.read(send), reference_clock.read(receive),
                )
            )
    return messages


def print_table(title: str, headers: list[str], rows: list[list[str]]) -> None:
    """Print a small fixed-width table under a title banner."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(header)), *(len(str(row[i])) for row in rows)) if rows else len(header)
              for i, header in enumerate(headers)]
    print("  ".join(str(header).ljust(width) for header, width in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
