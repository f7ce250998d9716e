#!/usr/bin/env python3
"""Quickstart: inject a global-state-driven fault and verify it offline.

This script runs the smallest useful Loki evaluation end to end:

1. a scenario is looked up in the scenario registry (by default ``toggle``:
   a *driver* toggling between IDLE and ACTIVE and an *observer* carrying
   the fault ``fstate ((driver:ACTIVE) & (observer:READY)) always``);
2. the study built by the registry runs on the chosen execution backend,
   injecting faults whenever a partial view says the global state is right;
3. the analysis phase synchronizes the clocks offline, builds the global
   timeline, and checks every injection;
4. the scenario's own study measure summarizes the accepted experiments.

Use ``--scenario`` to run any other registered workload (see
``examples/scenario_tour.py`` for the full list).  With ``--store DIR``
the campaign is recorded into a persistent campaign store: run the same
command twice and the second invocation resumes from the records instead
of re-simulating (see the README's "Persistence & resume" section).
"""

import argparse

from repro.core.campaign import CampaignConfig, run_single_study
from repro.core.execution import ExecutionConfig, available_backends
from repro.measures import summarize_sample
from repro.pipeline import analyze_study, correct_injection_fraction, run_and_analyze
from repro.scenarios import default_registry
from repro.store import CampaignStore


def main() -> None:
    registry = default_registry()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", choices=registry.names(), default="toggle",
                        help="registered scenario to run")
    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be at least 1")
        return value

    parser.add_argument("--experiments", type=positive_int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", choices=available_backends(), default="serial",
                        help="campaign execution backend (results are identical)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the parallel backend (either name)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="record into (and resume from) a campaign store directory")
    options = parser.parse_args()
    execution = ExecutionConfig(backend=options.backend, workers=options.workers)

    scenario = registry.get(options.scenario)
    study = scenario.build(experiments=options.experiments, seed=options.seed)
    print(f"Running scenario {scenario.name!r}: {study.experiments} experiments, "
          f"design {study.design.describe()}, backend {execution.backend}")
    for line in scenario.fault_lines():
        print(f"  fault: {line}")
    if options.store is not None:
        store = CampaignStore(options.store)
        campaign = CampaignConfig(name=f"quickstart-{scenario.name}", studies=[study])
        if store.exists():
            print(f"Resuming from {store.path}: recorded experiments will be reused")
        # Count what actually runs (vs is reused) via the progress stream.
        simulated = 0

        def progress(name: str, done: int, total: int) -> None:
            nonlocal simulated
            simulated += 1

        execution = ExecutionConfig(
            backend=options.backend, workers=options.workers, progress=progress
        )
        analysis = run_and_analyze(campaign, execution, store=store).study(study.name)
        print(f"Campaign records stored under {store.path} "
              f"({simulated} simulated, {study.experiments - simulated} reused)")
    else:
        analysis = analyze_study(run_single_study(study, execution))

    accepted = analysis.accepted()
    print(f"Experiments accepted by the analysis phase: {len(accepted)}/{len(analysis.experiments)}")
    fraction = correct_injection_fraction(analysis.experiments)
    print("Correct-injection fraction: "
          + (f"{fraction:.2f}" if fraction is not None else "n/a (no injections observed)"))

    if scenario.measure_factory is not None:
        measure = scenario.measure_factory()
        values = [value for value in analysis.measure_values(measure) if value is not None]
        if values:
            summary = summarize_sample(values)
            print(f"Study measure {measure.name!r}: mean={summary.mean:.4f}, "
                  f"std={summary.standard_deviation:.4f} (n={summary.count})")
        else:
            print(f"Study measure {measure.name!r}: no surviving values")

    example = accepted[0] if accepted else analysis.experiments[0]
    print("\nClock bounds of the first experiment (relative to "
          f"{example.result.reference_host}):")
    for host, bounds in example.clock_bounds.items():
        print(f"  {host:8s} alpha width {bounds.alpha_width * 1e6:7.1f} us   "
              f"beta width {bounds.beta_width:.2e}")


if __name__ == "__main__":
    main()
