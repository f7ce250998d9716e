"""The protocol scenario suite, audited end to end.

Three layers:

* **Invariants** — every protocol scenario of the default registry runs
  on the serial backend and every experiment's timelines must satisfy
  the scenario's machine-checkable safety properties
  (:mod:`invariants`), non-vacuously (the headline protocol-note kind
  must actually appear somewhere in the study).
* **Differential** — the four base scenarios run under
  {serial, parallel} × {jsonl, columnar} and every
  combination must be bit-identical to the serial/jsonl reference: same
  store fingerprint, same per-experiment payloads, same measure values —
  and the invariants are replayed from the *store-loaded* records, so
  the structured protocol notes provably survive both codecs and every
  process boundary.
* **Properties** — the invariants hold across randomly drawn master
  seeds, via hypothesis when installed and a deterministic seeded table
  always, sharing the same check function.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from invariants import (
    SCENARIO_ACTIVITY,
    SCENARIO_INVARIANTS,
    assert_invariants,
    collect_notes,
    violations_for_experiment,
)
from repro.core.campaign import CampaignConfig
from repro.core.execution import PROCESS_POOL, ExecutionConfig, available_backends
from repro.pipeline import run_and_analyze
from repro.scenarios import DEFAULT_REGISTRY
from repro.store import CampaignStore, result_to_dict

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ModuleNotFoundError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

PROTOCOL_SCENARIOS = tuple(SCENARIO_INVARIANTS)

#: The four apps, one representative scenario each, for the expensive
#: cross-backend differential matrix.
BASE_SCENARIOS = ("raft-election", "quorum-register", "swim-detector", "dfs-master")

needs_fork = pytest.mark.skipif(
    PROCESS_POOL not in available_backends(),
    reason="the parallel backend needs the fork start method",
)


def run_scenario(name: str, experiments: int = 3, seed: int = 0):
    """One in-memory serial run of a registry scenario, timelines kept."""
    study = DEFAULT_REGISTRY.build(name, experiments=experiments, seed=seed)
    campaign = CampaignConfig(name=f"protocol-{name}", studies=[study])
    return run_and_analyze(
        campaign, execution=ExecutionConfig(keep_raw_results=True)
    )


# ---------------------------------------------------------------------------
# Registry coverage
# ---------------------------------------------------------------------------


def test_invariant_table_covers_exactly_the_protocol_scenarios():
    """Every ``protocol``-tagged scenario has invariants wired, and only those."""
    tagged = {
        scenario.name
        for scenario in DEFAULT_REGISTRY
        if "protocol" in scenario.tags
    }
    assert tagged == set(SCENARIO_INVARIANTS) == set(SCENARIO_ACTIVITY)


def test_every_protocol_app_has_a_falsifiable_invariant():
    """Each of the four apps contributes at least one checker (the
    self-test module proves each can actually fail)."""
    for base in BASE_SCENARIOS:
        assert SCENARIO_INVARIANTS[base], f"{base} has no invariants"


# ---------------------------------------------------------------------------
# Invariants on every protocol scenario (serial backend)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario_name", PROTOCOL_SCENARIOS)
def test_scenario_satisfies_its_invariants(scenario_name):
    analysis = run_scenario(scenario_name)
    assert_invariants(scenario_name, analysis)
    # Non-vacuity: the protocol really ran — its headline note kind
    # appears in at least one experiment of the study.
    kind = SCENARIO_ACTIVITY[scenario_name]
    study = analysis.studies[scenario_name]
    notes = [
        note
        for experiment in study.experiments
        for note in collect_notes(experiment.result.local_timelines, kind)
    ]
    assert notes, f"{scenario_name}: no @{kind} notes — invariants held vacuously"


@pytest.mark.parametrize("scenario_name", PROTOCOL_SCENARIOS)
def test_scenario_verification_accepts_a_majority(scenario_name):
    """The offline injection verification accepts most experiments.

    The protocol scenarios were tuned so their trigger windows exceed the
    notification latency (the paper's acceptance precondition); a
    majority-accepted study proves the faults genuinely landed inside
    their intended global states rather than being vacuously absent.
    """
    analysis = run_scenario(scenario_name, experiments=4, seed=1)
    experiments = analysis.studies[scenario_name].experiments
    accepted = sum(1 for experiment in experiments if experiment.accepted)
    assert accepted * 2 > len(experiments), (
        f"{scenario_name}: only {accepted}/{len(experiments)} experiments "
        "passed injection verification"
    )


def test_swim_partition_confirms_are_false_positives():
    """The partition scenario's measure counts *wrong* verdicts.

    Nothing crashes, yet members confirm peers dead across the cut — the
    exact property the confirmed-dead checker (deliberately not applied
    here) would flag.  This pins the false-positive mechanism the
    scenario exists to measure.
    """
    from invariants import check_swim_confirms, crashed_machines

    analysis = run_scenario("swim-partition", experiments=3, seed=2)
    study = analysis.studies["swim-partition"]
    confirms = 0
    for experiment in study.experiments:
        timelines = experiment.result.local_timelines
        assert not crashed_machines(timelines)
        false_positives = check_swim_confirms(timelines)
        observed = collect_notes(timelines, "swim-confirm")
        assert len(false_positives) == len(observed)
        confirms += len(observed)
    assert confirms > 0, "the partition never produced a false confirm"


def test_raft_partition_overlap_is_cross_term_only():
    """Isolating the leader produces dual leadership — but never same-term.

    The deposed leader keeps leading its old term on the minority side
    while the majority elects a successor in a newer term; the
    ``dual-leadership`` measure sees the overlap, and election safety
    (per term) still holds — the exact distinction the invariant
    encodes.
    """
    scenario = DEFAULT_REGISTRY.get("raft-election-partition")
    study = scenario.build(experiments=4, seed=0)
    campaign = CampaignConfig(name="raft-partition-probe", studies=[study])
    analysis = run_and_analyze(
        campaign, execution=ExecutionConfig(keep_raw_results=True)
    )
    assert_invariants("raft-election-partition", analysis)
    values = analysis.studies[study.name].measure_values(scenario.measure_factory())
    assert any(value is not None and value > 0 for value in values), (
        "the partition never produced overlapping leadership"
    )


def test_dfs_partition_produces_audited_divergence():
    """The short split leaves a stale replica the audit must flag.

    ``d1`` keeps its placements (the split is shorter than the dead
    timeout) but misses versioned updates; after the heal its heartbeat
    digests betray the stale versions, the master enters ``DIVERGED``
    (``@dfs-diverged``), and the repair stores restore agreement —
    without ever violating per-version store consistency.
    """
    analysis = run_scenario("dfs-master-partition", experiments=3, seed=0)
    assert_invariants("dfs-master-partition", analysis)
    study = analysis.studies["dfs-master-partition"]
    diverged = [
        note
        for experiment in study.experiments
        for note in collect_notes(experiment.result.local_timelines, "dfs-diverged")
    ]
    assert diverged, "the partition never drove the audit into DIVERGED"


# ---------------------------------------------------------------------------
# Differential: backends × codecs are one system
# ---------------------------------------------------------------------------


def _store_fingerprint(store, study_name: str) -> str:
    digest = hashlib.sha256()
    records = store.load_study_records(study_name)
    for index in sorted(records):
        canonical = json.dumps(
            result_to_dict(records[index]), sort_keys=True, separators=(",", ":")
        )
        digest.update(canonical.encode("utf-8"))
    return digest.hexdigest()


def _run_combination(scenario_name, directory, codec, execution):
    """One store-backed run; returns (fingerprint, payloads, measures)."""
    study = DEFAULT_REGISTRY.build(scenario_name, experiments=2, seed=13)
    campaign = CampaignConfig(name=f"differential-{scenario_name}", studies=[study])
    store = CampaignStore(directory, codec=codec)
    with store:
        analysis = run_and_analyze(campaign, store=store, execution=execution)
    records = store.load_study_records(study.name)
    # The invariants replay from the *loaded* records: the protocol notes
    # made the full trip through the backend and the codec.
    for index in sorted(records):
        violations = violations_for_experiment(
            scenario_name, records[index].local_timelines
        )
        assert not violations, f"{scenario_name}[{index}] via store: {violations}"
    scenario = DEFAULT_REGISTRY.get(scenario_name)
    measure = scenario.measure_factory()
    values = analysis.studies[study.name].measure_values(measure)
    payloads = {index: result_to_dict(record) for index, record in records.items()}
    return _store_fingerprint(store, study.name), payloads, values


@needs_fork
@pytest.mark.parametrize("scenario_name", BASE_SCENARIOS)
def test_backends_and_codecs_are_bit_identical(scenario_name, tmp_path):
    executions = {
        "serial": ExecutionConfig(),
        # One engine behind both parallel names; one-experiment leases are
        # the harshest shape (most dispatches, most lease boundaries).
        "parallel": ExecutionConfig.process_pool(workers=2, chunk_size=1),
    }
    reference = _run_combination(
        scenario_name, tmp_path / "reference", "jsonl", executions["serial"]
    )
    for backend, execution in executions.items():
        for codec in ("jsonl", "columnar"):
            if backend == "serial" and codec == "jsonl":
                continue  # the reference itself
            candidate = _run_combination(
                scenario_name, tmp_path / f"{backend}-{codec}", codec, execution
            )
            context = f"{scenario_name}: {backend}×{codec} vs serial×jsonl"
            assert candidate[1] == reference[1], f"payloads diverged ({context})"
            assert candidate[2] == reference[2], f"measures diverged ({context})"
            assert candidate[0] == reference[0], f"fingerprints diverged ({context})"


# ---------------------------------------------------------------------------
# Properties over seeds (hypothesis when present, seeded table always)
# ---------------------------------------------------------------------------

PROPERTY_SCENARIOS = ("raft-election", "quorum-register")


def check_invariants_at_seed(scenario_name: str, seed: int) -> None:
    analysis = run_scenario(scenario_name, experiments=1, seed=seed)
    assert_invariants(scenario_name, analysis)


@pytest.mark.parametrize("scenario_name", PROPERTY_SCENARIOS)
def test_invariants_hold_across_seeded_table(scenario_name):
    for seed in (3, 29, 271, 2718, 31415):
        check_invariants_at_seed(scenario_name, seed)


if HAVE_HYPOTHESIS:

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @pytest.mark.parametrize("scenario_name", PROPERTY_SCENARIOS)
    def test_invariants_hold_at_hypothesis_seeds(scenario_name, seed):
        check_invariants_at_seed(scenario_name, seed)
