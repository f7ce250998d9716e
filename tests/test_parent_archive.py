"""Archives written before envelope-only sync rows still load, analyse and resume.

``tests/data/parent_archive/store`` is a columnar campaign store recorded
at commit ``c7444a6`` — the last commit whose store archived every
synchronization message — from ``leader-election`` and
``raft-election-partition`` (2 experiments each, campaign seed 41, serial
backend).  ``expected.json`` holds what that commit's analysis phase made
of it: ``float.hex()`` of every host's clock bounds and polygon vertices,
every injection verdict, and each experiment's acceptance.

Newer stores keep only the sync rows on the clock envelopes; these tests
say an old, full archive still reads and analyses to the same answers,
and that a resume from it re-runs nothing and appends nothing.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core.campaign import CampaignRunner
from repro.core.execution import ExecutionConfig
from repro.pipeline import run_and_analyze
from repro.scenarios import DEFAULT_REGISTRY
from repro.store import CampaignStore

from test_clock_bounds_golden import pin

ARCHIVE = Path(__file__).parent / "data" / "parent_archive"
EXPECTED = json.loads((ARCHIVE / "expected.json").read_text(encoding="utf-8"))


def parent_campaign():
    return DEFAULT_REGISTRY.build_campaign(
        ["leader-election", "raft-election-partition"],
        experiments=2,
        seed=41,
        campaign_name="parent-archive",
    )


def assert_matches_expected(analysis) -> None:
    assert sorted(analysis.studies) == sorted(EXPECTED)
    for name, rows in EXPECTED.items():
        experiments = analysis.studies[name].experiments
        assert [experiment.result.index for experiment in experiments] == [
            row["index"] for row in rows
        ]
        for experiment, row in zip(experiments, rows):
            assert {
                host: pin(bounds) for host, bounds in experiment.clock_bounds.items()
            } == row["bounds"], (name, row["index"])
            assert [
                [verdict.machine, verdict.fault, verdict.correct, verdict.reason]
                for verdict in experiment.verification.verdicts
            ] == row["verdicts"], (name, row["index"])
            assert experiment.accepted == row["accepted"]


@pytest.fixture
def archive(tmp_path) -> Path:
    # Attaching rewrites the manifest, so every test works on a copy.
    copy = tmp_path / "store"
    shutil.copytree(ARCHIVE / "store", copy)
    return copy


def test_parent_archive_loads_with_every_sync_row(archive):
    results = CampaignStore(archive).load_results(parent_campaign())
    for name, rows in EXPECTED.items():
        stored = results.studies[name].experiments
        assert [len(result.sync_messages) for result in stored] == [
            row["sync_rows"] for row in rows
        ]


@pytest.mark.parametrize("with_campaign", [False, True])
def test_parent_archive_analyses_to_the_recorded_answers(archive, with_campaign):
    store = CampaignStore(archive)
    assert_matches_expected(store.load_analysis(parent_campaign() if with_campaign else None))


def test_parent_archive_resumes_without_rerunning(archive, monkeypatch):
    def refuse(self, study, index):
        raise AssertionError(f"resume re-ran {study.name}:{index}")

    monkeypatch.setattr(CampaignRunner, "run_experiment", refuse)
    before = {
        path.name: path.read_bytes() for path in (archive / "records").iterdir()
    }
    with CampaignStore(archive, codec="columnar") as store:
        analysis = run_and_analyze(
            parent_campaign(), ExecutionConfig.serial(keep_raw_results=True), store=store
        )
    assert_matches_expected(analysis)
    after = {path.name: path.read_bytes() for path in (archive / "records").iterdir()}
    assert after == before
