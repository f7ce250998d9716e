"""Before/after equivalence pin for the topology-aware network refactor.

``tests/data/network_refactor_golden.json`` was generated by the
*pre-topology* implementation (flat ``Environment``/``network.py`` path
with two static link profiles): for every scenario registered at the time
it records the experiment seeds, per-experiment durations, acceptance
counts, and study-measure values of a small serial campaign, with floats
stored as exact hex.  The topology refactor promised that the default
fully connected topology consumes the random stream in exactly the old
order — this test holds it to that promise bit-for-bit, end to end
(substrate, runtime phase, analysis phase, measures).

The new partition scenarios are deliberately absent from the golden file
(they did not exist before the refactor); their determinism is covered by
the serial-vs-pool smoke tests and the store round trip in
``test_network_scenarios_store.py``.

``tests/data/network_batched_golden.json`` is the same style of pin for
the delivery engine's block pre-draw: its entries were generated with one
plain ``random()`` call per variate, over every registered scenario,
partition suite included, and the test replays each scenario through the
engine as it runs today (numpy state-transplant refills).  Where the
refactor golden proves the topology layer kept the old stream order, this
one proves block pre-drawing keeps it too, from disk.

To pin a *new* scenario, run it with ``repro.sim.rng._np = None`` — the
refill is then ``chunk`` plain ``random()`` calls, the per-call reference
— and record seeds, durations, acceptance and measure values (floats as
``float.hex()``) under the scenario's name.
"""

import json
from pathlib import Path

import pytest

from repro.core.campaign import CampaignConfig
from repro.core.execution import ExecutionConfig
from repro.pipeline import run_and_analyze
from repro.scenarios import DEFAULT_REGISTRY

GOLDEN_PATH = Path(__file__).parent / "data" / "network_refactor_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

BATCHED_GOLDEN_PATH = Path(__file__).parent / "data" / "network_batched_golden.json"
BATCHED_GOLDEN = json.loads(BATCHED_GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("scenario_name", sorted(GOLDEN))
def test_scenario_matches_pre_refactor_golden(scenario_name):
    expected = GOLDEN[scenario_name]
    scenario = DEFAULT_REGISTRY.get(scenario_name)
    study = scenario.build(
        experiments=expected["experiments"], seed=expected["seed"]
    )
    analysis = run_and_analyze(
        CampaignConfig(name=f"golden-{scenario_name}", studies=[study]),
        execution=ExecutionConfig(backend="serial"),
    )
    study_analysis = analysis.study(scenario_name)

    seeds = [e.result.seed for e in study_analysis.experiments]
    assert seeds == expected["experiment_seeds"], (
        f"{scenario_name}: experiment seed derivation drifted"
    )

    durations = [e.result.duration.hex() for e in study_analysis.experiments]
    assert durations == expected["durations"], (
        f"{scenario_name}: simulated experiment durations drifted — the "
        "substrate no longer consumes the RNG stream in the pre-topology order"
    )

    assert len(study_analysis.accepted()) == expected["accepted"], (
        f"{scenario_name}: analysis-phase acceptance drifted"
    )

    if expected["measure_values"] is not None:
        values = [
            None if value is None else value.hex()
            for value in study_analysis.measure_values(scenario.measure_factory())
        ]
        assert values == expected["measure_values"], (
            f"{scenario_name}: study-measure values are not bit-identical "
            "to the pre-refactor implementation"
        )


def test_golden_file_covers_every_pre_refactor_scenario():
    """Guard against the golden file silently losing coverage."""
    expected = {
        "toggle",
        "leader-election",
        "primary-backup",
        "two-phase-commit",
        "two-phase-commit-uncorrelated",
        "token-ring",
        "token-ring-uncorrelated",
    }
    assert set(GOLDEN) == expected
    for name in expected:
        assert name in DEFAULT_REGISTRY


@pytest.mark.parametrize("scenario_name", sorted(BATCHED_GOLDEN))
def test_batched_delivery_matches_per_call_golden(scenario_name):
    """Block pre-drawing reproduces per-call-generated numbers from disk."""
    expected = BATCHED_GOLDEN[scenario_name]
    scenario = DEFAULT_REGISTRY.get(scenario_name)
    study = scenario.build(
        experiments=expected["experiments"], seed=expected["seed"]
    )
    analysis = run_and_analyze(
        CampaignConfig(name=f"batched-golden-{scenario_name}", studies=[study]),
        execution=ExecutionConfig(backend="serial"),
    )
    study_analysis = analysis.study(scenario_name)

    seeds = [e.result.seed for e in study_analysis.experiments]
    assert seeds == expected["experiment_seeds"], (
        f"{scenario_name}: experiment seed derivation drifted"
    )

    durations = [e.result.duration.hex() for e in study_analysis.experiments]
    assert durations == expected["durations"], (
        f"{scenario_name}: batched delivery no longer consumes the RNG "
        "stream in per-call order"
    )

    assert len(study_analysis.accepted()) == expected["accepted"], (
        f"{scenario_name}: analysis-phase acceptance drifted"
    )

    if expected["measure_values"] is not None:
        values = [
            None if value is None else value.hex()
            for value in study_analysis.measure_values(scenario.measure_factory())
        ]
        assert values == expected["measure_values"], (
            f"{scenario_name}: study-measure values are not bit-identical "
            "to per-call random() draws"
        )


def test_batched_golden_covers_every_scenario():
    """The batched pin tracks the registry: new scenarios must be added.

    See the module docstring for how an entry is generated.
    """
    assert set(BATCHED_GOLDEN) == set(DEFAULT_REGISTRY.names())
