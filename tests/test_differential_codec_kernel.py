"""Differential tests: the JSONL and columnar codecs are one system.

Every registry scenario is run store-backed under both codecs (JSONL
lines vs columnar blocks), and the columnar run must be
indistinguishable from the JSONL one at every observable level:

* **timelines** — every recorded experiment payload, compared through the
  canonical dictionary mapping (bit-exact float equality);
* **measures** — the full downstream measure/acceptance/estimate set;
* **store fingerprints** — a digest over the canonical content of every
  stored record, proving the *stores* (not just the in-memory analyses)
  hold identical data whatever codec framed it.

That the delivery engine's draws are the ones it always made is pinned
from disk by ``tests/data/network_batched_golden.json`` (see
``test_network_equivalence_golden.py``); cross-backend identity is
covered elsewhere.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.campaign import CampaignConfig
from repro.measures.campaign_measures import (
    SimpleSamplingMeasure,
    estimate_campaign_measure,
)
from repro.pipeline import run_and_analyze
from repro.scenarios import DEFAULT_REGISTRY
from repro.store import CampaignStore, result_to_dict

EXPERIMENTS = 2
SEED = 17


def campaign_for(scenario_name: str) -> CampaignConfig:
    study = DEFAULT_REGISTRY.build(scenario_name, experiments=EXPERIMENTS, seed=SEED)
    return CampaignConfig(name=f"differential-{scenario_name}", studies=[study])


def measures_of(analysis, scenario_name):
    """Every downstream quantity of a scenario run, in bit-comparable form."""
    scenario = DEFAULT_REGISTRY.get(scenario_name)
    study_name = next(iter(analysis.studies))
    study_analysis = analysis.studies[study_name]
    seeds = [e.result.seed for e in study_analysis.experiments]
    acceptance = analysis.acceptance_summary()
    if scenario.measure_factory is None:
        return acceptance, seeds
    measure = scenario.measure_factory()
    values = study_analysis.measure_values(measure)
    estimate = None
    if any(value is not None for value in values):
        estimate = estimate_campaign_measure(
            SimpleSamplingMeasure("headline"), analysis, {study_name: measure}
        ).to_dict()
    return acceptance, seeds, values, estimate


def store_fingerprint(store: CampaignStore, campaign: CampaignConfig) -> str:
    """SHA-256 over the canonical content of every stored record.

    Hashing the canonical payload dictionaries (not the files) makes the
    digest codec-independent: two stores holding the same experiments in
    different framings fingerprint identically, and any single bit of
    drift in any float of any record changes it.
    """
    digest = hashlib.sha256()
    for study in campaign.studies:
        records = store.load_study_records(study.name)
        for index in sorted(records):
            canonical = json.dumps(
                result_to_dict(records[index]),
                sort_keys=True,
                separators=(",", ":"),
            )
            digest.update(canonical.encode("utf-8"))
    return digest.hexdigest()


def run_with_codec(scenario_name, directory, codec):
    """One full store-backed run; returns (measures, timelines, fingerprint)."""
    campaign = campaign_for(scenario_name)
    with CampaignStore(directory, codec=codec) as store:
        analysis = run_and_analyze(campaign, store=store)
    timelines = {
        study.name: {
            index: result_to_dict(record)
            for index, record in store.load_study_records(study.name).items()
        }
        for study in campaign.studies
    }
    return (
        measures_of(analysis, scenario_name),
        timelines,
        store_fingerprint(store, campaign),
    )


@pytest.mark.parametrize("scenario_name", DEFAULT_REGISTRY.names())
def test_codecs_are_bit_identical(scenario_name, tmp_path):
    reference = run_with_codec(scenario_name, tmp_path / "jsonl", "jsonl")
    candidate = run_with_codec(scenario_name, tmp_path / "columnar", "columnar")
    context = f"{scenario_name}: columnar vs jsonl"
    assert candidate[1] == reference[1], f"timelines diverged ({context})"
    assert candidate[0] == reference[0], f"measures diverged ({context})"
    assert candidate[2] == reference[2], f"fingerprints diverged ({context})"
