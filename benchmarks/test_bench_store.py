"""CAMPAIGN STORE: persistence overhead, re-analysis, and codec throughput.

Three questions:

1. What does attaching a ``CampaignStore`` cost the live pipeline?
   (``store_backed_campaign`` vs the plain fused run — the delta is the
   record encoding plus the append I/O.)
2. How fast is the run-once/analyze-many path — the analysis phase re-run
   purely from archived records, zero simulator invocations?
   (``test_bench_store_reanalysis``.)
3. What does archiving cost at campaign scale?  The codec bench streams a
   synthetic study holding **one million timeline records** through the
   columnar store and reads every record back
   (``test_bench_store_roundtrip_1m_records``), with the JSONL codec timed on a
   sample of the same payload for the comparison table.

Correctness is asserted before timings are recorded: the store-loaded
analysis must be bit-identical to the live one, and the bulk round trip
must return every record.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from random import Random

from conftest import print_table
from repro.analysis.clock_sync import SyncMessageRecord
from repro.core.campaign import CampaignConfig, ExperimentResult
from repro.core.specs.fault_spec import FaultSpecification
from repro.core.timeline import LocalTimeline
from repro.apps.toggle import build_toggle_study
from repro.pipeline import run_and_analyze
from repro.sim.clock import ClockParameters
from repro.store import CampaignStore

EXPERIMENTS = 6

#: The bulk round trip: this many experiments of this many records each.
BULK_EXPERIMENTS = 10
BULK_RECORDS_EACH = 100_000


def build_campaign() -> CampaignConfig:
    study = build_toggle_study(
        "bench-store", dwell_time=0.02, timeslice=0.002, cycles=3,
        experiments=EXPERIMENTS, seed=42,
    )
    return CampaignConfig(name="bench-store-campaign", studies=[study])


def analysis_fingerprint(analysis) -> dict:
    study = analysis.study("bench-store")
    return {
        "seeds": [e.result.seed for e in study.experiments],
        "accepted": [e.accepted for e in study.experiments],
        "timeline_sizes": [len(e.global_timeline.entries) for e in study.experiments],
    }


def test_bench_store_backed_campaign(benchmark, tmp_path_factory):
    """Fused run with persistence: simulate + analyze + stream to disk."""
    campaign = build_campaign()

    def run_with_store():
        directory = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
        try:
            return run_and_analyze(campaign, store=CampaignStore(directory / "c"))
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    analysis = benchmark(run_with_store)
    assert len(analysis.study("bench-store").experiments) == EXPERIMENTS


def test_bench_store_reanalysis(benchmark, tmp_path):
    """The analyze-many path: analysis phase from archived records only."""
    campaign = build_campaign()
    store = CampaignStore(tmp_path / "c")
    live = run_and_analyze(campaign, store=store)

    loaded = store.load_analysis(campaign)
    assert analysis_fingerprint(loaded) == analysis_fingerprint(live)

    benchmark(store.load_analysis, campaign)


# ---------------------------------------------------------------------------
# Codec throughput at campaign scale
# ---------------------------------------------------------------------------


def bulk_result(index: int, records: int = BULK_RECORDS_EACH) -> ExperimentResult:
    """One synthetic experiment whose timeline holds ``records`` rows."""
    rng = Random(index)
    timeline = LocalTimeline(
        machine="m0",
        state_machines=("m0",),
        global_states=("UP", "READY"),
        events=("go",),
        faults=FaultSpecification.from_definitions([]),
    )
    now = 0.0
    for _ in range(records):
        now += rng.random() * 1e-3
        timeline.add_state_change("go", "UP", now, "h0")
    return ExperimentResult(
        study="bulk",
        index=index,
        seed=index,
        local_timelines={"m0": timeline},
        sync_messages=[SyncMessageRecord("h0", "h1", 0.1, 0.2)],
        hosts=("h0", "h1"),
        reference_host="h0",
        host_clock_parameters={"h0": ClockParameters(0.0, 1.0, 0.0)},
        completed=True,
        aborted=False,
        abort_reason=None,
        duration=now,
        stats={},
    )


def roundtrip(directory: Path, codec: str, results: list[ExperimentResult]) -> int:
    """Write ``results`` through ``codec`` and read every record back."""
    store = CampaignStore(directory, codec=codec)
    with store:
        for result in results:
            store.append(result)
    loaded = store.load_study_records("bulk")
    return sum(
        len(timeline.records)
        for result in loaded.values()
        for timeline in result.local_timelines.values()
    )


def test_bench_store_roundtrip_1m_records(benchmark, tmp_path):
    """One million records through the columnar codec and back."""
    results = [bulk_result(index) for index in range(BULK_EXPERIMENTS)]
    total = BULK_EXPERIMENTS * BULK_RECORDS_EACH

    # Context: the JSONL codec on a fifth of the payload (full scale would
    # dominate the bench session), plus on-disk sizes for both.
    sample = results[: BULK_EXPERIMENTS // 5]
    start = time.perf_counter()
    assert roundtrip(tmp_path / "jsonl", "jsonl", sample) == (
        len(sample) * BULK_RECORDS_EACH
    )
    jsonl_elapsed = time.perf_counter() - start
    jsonl_bytes = sum(
        path.stat().st_size for path in (tmp_path / "jsonl" / "records").iterdir()
    )

    rounds = 0

    def columnar_roundtrip() -> int:
        nonlocal rounds
        rounds += 1
        directory = tmp_path / f"columnar-{rounds}"
        count = roundtrip(directory, "columnar", results)
        if rounds > 1:  # keep one copy for the size row
            shutil.rmtree(directory, ignore_errors=True)
        return count

    # A single 1M-record round trip takes seconds: pedantic with a few
    # rounds keeps the bench session affordable at full scale.
    counted = benchmark.pedantic(columnar_roundtrip, rounds=3, iterations=1)
    assert counted == total

    columnar_bytes = sum(
        path.stat().st_size for path in (tmp_path / "columnar-1" / "records").iterdir()
    )
    mean = benchmark.stats.stats.mean
    print_table(
        f"Store round trip — {total} timeline records",
        ["codec", "records", "round trip", "throughput", "bytes on disk"],
        [
            [
                "columnar",
                str(total),
                f"{mean:.2f} s",
                f"{total / mean / 1e6:.2f}M rec/s",
                str(columnar_bytes),
            ],
            [
                f"jsonl ({len(sample)}/{BULK_EXPERIMENTS} sample)",
                str(len(sample) * BULK_RECORDS_EACH),
                f"{jsonl_elapsed:.2f} s",
                f"{len(sample) * BULK_RECORDS_EACH / jsonl_elapsed / 1e6:.2f}M rec/s",
                str(jsonl_bytes),
            ],
        ],
    )
