"""PROTOCOLS: the real-protocol scenario suite, timed.

Times the protocol campaign — the four base scenarios (Raft-style
election, quorum register, SWIM detector, DFS master/replica) run
back-to-back through the full pipeline — and prints a per-scenario
comparison (acceptance, protocol-note volume, headline measure) over all
twelve protocol variants.
"""

from __future__ import annotations

from conftest import print_table
from repro.core.campaign import CampaignConfig
from repro.core.execution import ExecutionConfig
from repro.pipeline import run_and_analyze
from repro.scenarios import DEFAULT_REGISTRY

#: One representative scenario per protocol app: the timed campaign.
BASE_SCENARIOS = ("raft-election", "quorum-register", "swim-detector", "dfs-master")

#: Every protocol variant, for the comparison table.
PROTOCOL_SCENARIOS = tuple(
    scenario.name for scenario in DEFAULT_REGISTRY if "protocol" in scenario.tags
)

EXPERIMENTS = 2
SEED = 7


def run_protocol_campaign() -> int:
    """One full pipeline run of the four base scenarios; returns #accepted."""
    campaign = DEFAULT_REGISTRY.build_campaign(
        names=BASE_SCENARIOS,
        experiments=EXPERIMENTS,
        seed=SEED,
        campaign_name="protocol-bench",
    )
    analysis = run_and_analyze(campaign)
    return sum(
        1
        for study_name in analysis.studies
        for experiment in analysis.studies[study_name].experiments
        if experiment.accepted
    )


def test_bench_protocol_suite_campaign(benchmark):
    """Time the base-scenario campaign and print the full variant table."""
    rows = []
    for name in PROTOCOL_SCENARIOS:
        scenario = DEFAULT_REGISTRY.get(name)
        study = scenario.build(experiments=EXPERIMENTS, seed=SEED)
        campaign = CampaignConfig(name=f"bench-{name}", studies=[study])
        analysis = run_and_analyze(
            campaign, execution=ExecutionConfig(keep_raw_results=True)
        )
        study_analysis = analysis.studies[study.name]
        accepted = sum(1 for e in study_analysis.experiments if e.accepted)
        notes = sum(
            len(timeline.notes)
            for e in study_analysis.experiments
            for timeline in e.result.local_timelines.values()
        )
        values = [
            value
            for value in study_analysis.measure_values(scenario.measure_factory())
            if value is not None
        ]
        mean = sum(values) / len(values) if values else None
        rows.append(
            [
                name,
                f"{accepted}/{EXPERIMENTS}",
                str(notes),
                scenario.measure_names()[0],
                f"{mean:.4f}" if mean is not None else "n/a",
            ]
        )

    accepted = benchmark(run_protocol_campaign)
    assert accepted > len(BASE_SCENARIOS)  # a majority across the campaign

    print_table(
        f"Protocol suite — {len(PROTOCOL_SCENARIOS)} scenarios, "
        f"{EXPERIMENTS} experiments each",
        ["scenario", "accepted", "notes", "measure", "mean"],
        rows,
    )
