"""Bit-for-bit pin of the clock-bound solver on every registry scenario.

``tests/data/clock_bounds_golden.json`` was generated at commit ``53a987e``
— the last one whose solver read per-message ``SyncMessageRecord`` objects
into lists of ``(slope, intercept)`` tuples — by building every registered
scenario with ``experiments=3`` and ``seed = 31 + position in
registry.names()``, running it serially and recording, for each experiment
and each host, ``float.hex()`` of ``alpha_lower/upper``, ``beta_lower/upper``
and of every polygon vertex returned by ``estimate_clock_bounds``.

The LP cross-check of ``test_clock_sync_geometry.py`` only agrees to 1e-9
and the end-to-end digests cover four scenarios; this file is what says the
columnar input side (one ``.tolist()`` pass grouping each machine's rows,
lines ordered by sorted ``(-slope, intercept, row)`` triples, one hull
sweep) feeds the sweep the very same lines in the very same order.  To pin a new
scenario, record the same values for it with the solver as it stands.

``tests/data/runtime_golden.json`` pins the raw runtime output of the same
runs, one SHA-256 per experiment (see :func:`runtime_digest`): the sync
table, every local-timeline record, the stats, the duration and the
completion flags.  It was generated at commit ``d3f0c5f``, the last one
whose campaign drove the kernel one ``step()`` at a time, and is checked
inside the bounds loop so it costs no extra simulation.

``tests/data/analysis_golden.json`` pins what the analysis phase makes of
the same runs, one SHA-256 per experiment (see :func:`analysis_digest`):
every global-timeline entry's machine, kind and ``float.hex()`` bounds in
entry order, every injection verdict, the acceptance, and ``float.hex()``
of the scenario's study measure on the experiment's midpoint view.  It was
generated at commit ``92ffc97``, the last one whose timeline entries and
state periods were frozen dataclasses and whose global timeline rescanned
its entries on every query; it too is checked inside the bounds loop.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.clock_sync import ClockBounds, estimate_all_bounds, estimate_clock_bounds
from repro.core.campaign import run_single_study
from repro.pipeline import analyze_experiment
from repro.scenarios import DEFAULT_REGISTRY

GOLDEN_PATH = Path(__file__).parent / "data" / "clock_bounds_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
RUNTIME_GOLDEN_PATH = Path(__file__).parent / "data" / "runtime_golden.json"
RUNTIME_GOLDEN = json.loads(RUNTIME_GOLDEN_PATH.read_text(encoding="utf-8"))
ANALYSIS_GOLDEN_PATH = Path(__file__).parent / "data" / "analysis_golden.json"
ANALYSIS_GOLDEN = json.loads(ANALYSIS_GOLDEN_PATH.read_text(encoding="utf-8"))


def pin(bounds: ClockBounds) -> dict:
    return {
        "alpha_lower": bounds.alpha_lower.hex(),
        "alpha_upper": bounds.alpha_upper.hex(),
        "beta_lower": bounds.beta_lower.hex(),
        "beta_upper": bounds.beta_upper.hex(),
        "vertices": [[alpha.hex(), beta.hex()] for alpha, beta in bounds.vertices],
    }


def runtime_digest(result) -> str:
    """SHA-256 over everything the runtime phase hands to the analysis phase."""
    table = result.sync_messages
    lines = [
        f"sync {m.sender} {m.receiver} {m.send_time.hex()} {m.receive_time.hex()}"
        for m in table
    ]
    for machine, timeline in result.local_timelines.items():
        lines.append(f"timeline {machine}")
        lines.extend(
            f"{r.kind.value} {r.time.hex()} {r.host} {r.event} {r.new_state} {r.fault} {r.note}"
            for r in timeline.records
        )
    lines.append(f"stats {sorted(result.stats.items())}")
    lines.append(f"duration {result.duration.hex()}")
    lines.append(f"status {result.completed} {result.aborted} {result.abort_reason}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def analysis_digest(analyzed, measure) -> str:
    """SHA-256 over the analysis phase's output and the study measure's value."""
    lines = [
        f"entry {e.machine} {e.kind.value} {e.lower.hex()} {e.upper.hex()}"
        for e in analyzed.global_timeline.entries
    ]
    lines.extend(
        f"verdict {v.machine} {v.fault} {v.correct} {v.reason}"
        for v in analyzed.verification.verdicts
    )
    lines.append(f"accepted {analyzed.accepted}")
    value = None if measure is None else measure.apply_to_view(analyzed.view())
    lines.append(f"measure {None if value is None else float(value).hex()}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_golden_covers_every_registered_scenario():
    assert sorted(GOLDEN) == sorted(DEFAULT_REGISTRY.names())
    assert sorted(RUNTIME_GOLDEN) == sorted(GOLDEN)
    assert sorted(ANALYSIS_GOLDEN) == sorted(GOLDEN)


@pytest.mark.parametrize("scenario_name", sorted(GOLDEN))
def test_clock_bounds_match_golden(scenario_name):
    expected = GOLDEN[scenario_name]
    scenario = DEFAULT_REGISTRY.get(scenario_name)
    study = scenario.build(experiments=len(expected["experiments"]), seed=expected["seed"])
    experiments = run_single_study(study).experiments
    faults = study.fault_specifications()
    measure = scenario.measure_factory() if scenario.measure_factory is not None else None
    digests = zip(RUNTIME_GOLDEN[scenario_name], ANALYSIS_GOLDEN[scenario_name], strict=True)
    for result, pinned, (digest, analysis) in zip(
        experiments, expected["experiments"], digests, strict=True
    ):
        assert runtime_digest(result) == digest, (scenario_name, result.index)
        analyzed = analyze_experiment(result, faults)
        assert analysis_digest(analyzed, measure) == analysis, (scenario_name, result.index)
        assert sorted(pinned) == sorted(result.hosts)
        together = estimate_all_bounds(
            result.sync_messages, result.hosts, result.reference_host
        )
        for host in result.hosts:
            assert pin(together[host]) == pinned[host], (scenario_name, result.index, host)
            # The per-machine call and a plain list of records (the
            # ``SyncTable.of`` boundary) run the same code on the same lines.
            alone = estimate_clock_bounds(
                list(result.sync_messages), host, result.reference_host
            )
            assert alone == together[host]
