"""Tests of the persistent campaign store: format, manifest, resume.

The resume tests enforce the store's headline contract: a campaign
interrupted after N of M experiments and resumed from its store produces
campaign measures **bit-identical** to an uninterrupted run, with only the
missing experiments re-simulated — and post-hoc re-analysis from the store
invokes the simulator exactly zero times.

The record-format properties run twice, mirroring the statistics property
tests: against a deterministic seeded table (always), and against
hypothesis-generated payloads when hypothesis is installed.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.analysis.clock_sync import SyncMessageRecord
from repro.apps.toggle import build_toggle_study
from repro.core.campaign import CampaignConfig, CampaignRunner, ExperimentResult
from repro.core.execution import (
    PROCESS_POOL,
    ExecutionConfig,
    available_backends,
)
from repro.core.expression import parse_expression
from repro.core.specs.fault_spec import (
    FaultDefinition,
    FaultSpecification,
    FaultTrigger,
)
from repro.core.timeline import LocalTimeline
from repro.errors import StoreError, StoreIntegrityError
from repro.measures import (
    MeasureStep,
    SimpleSamplingMeasure,
    StateTuple,
    StudyMeasure,
    TotalDuration,
    estimate_campaign_measure,
)
from repro.pipeline import run_and_analyze
from repro.sim.clock import ClockParameters
from repro.store import (
    CampaignStore,
    StoredStudyConfig,
    decode_record,
    encode_record,
    result_to_dict,
    study_fingerprint,
)
from repro.store.manifest import Manifest, expected_seeds

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ModuleNotFoundError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

needs_pool = pytest.mark.skipif(
    PROCESS_POOL not in available_backends(),
    reason="process-pool backend needs the fork start method",
)


# ---------------------------------------------------------------------------
# Synthetic payloads
# ---------------------------------------------------------------------------


def synthetic_result(seed: int, extra_times: list[float] | None = None) -> ExperimentResult:
    """A randomized ExperimentResult exercising every serialized field."""
    rng = random.Random(seed)
    machines = [f"m{i}" for i in range(rng.randint(1, 3))]
    hosts = tuple(f"h{i}" for i in range(rng.randint(1, 3)))
    timelines: dict[str, LocalTimeline] = {}
    for machine in machines:
        faults = FaultSpecification.from_definitions(
            [
                FaultDefinition(
                    name=f"f{machine}",
                    expression=parse_expression(f"({machine}:UP) & ({machine}:READY)"),
                    trigger=rng.choice(list(FaultTrigger)),
                )
            ]
            if rng.random() < 0.8
            else []
        )
        timeline = LocalTimeline(
            machine=machine,
            state_machines=tuple(machines),
            global_states=("UP", "READY", "CRASH"),
            events=("go", "stop"),
            faults=faults,
        )
        times = [rng.uniform(0.0, 5.0) for _ in range(rng.randint(0, 6))]
        times += list(extra_times or [])
        for time in times:
            host = rng.choice(hosts)
            if rng.random() < 0.25 and len(faults):
                timeline.add_fault_injection(f"f{machine}", time, host)
            else:
                timeline.add_state_change("go", rng.choice(("UP", "READY")), time, host)
        if rng.random() < 0.3:
            timeline.add_note("a free-form user note")
        timelines[machine] = timeline
    return ExperimentResult(
        study="synthetic",
        index=rng.randint(0, 99),
        seed=rng.getrandbits(64),
        local_timelines=timelines,
        sync_messages=[
            SyncMessageRecord(
                rng.choice(hosts), rng.choice(hosts),
                rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
            )
            for _ in range(rng.randint(0, 5))
        ],
        hosts=hosts,
        reference_host=hosts[0],
        host_clock_parameters={
            host: ClockParameters(
                offset=rng.uniform(-0.01, 0.01),
                rate=1.0 + rng.uniform(-100, 100) * 1e-6,
                granularity=rng.choice((0.0, 1e-6)),
            )
            for host in hosts
        },
        completed=rng.random() < 0.8,
        aborted=rng.random() < 0.1,
        abort_reason=rng.choice((None, "event cap reached (5 events)")),
        duration=rng.uniform(0.0, 10.0),
        stats={"events": rng.randint(0, 10_000)},
    )


def check_roundtrip(result: ExperimentResult) -> None:
    decoded = decode_record(encode_record(result))
    # Canonical-dictionary equality is bit-exact float equality.
    assert result_to_dict(decoded) == result_to_dict(result)
    # And the dataclasses themselves compare equal (frozen records, faults).
    assert decoded.seed == result.seed
    for machine, timeline in result.local_timelines.items():
        other = decoded.local_timelines[machine]
        assert other.records == timeline.records
        assert other.faults == timeline.faults
        assert other.notes == timeline.notes
    assert decoded.sync_messages == result.sync_messages
    assert decoded.host_clock_parameters == result.host_clock_parameters


# ---------------------------------------------------------------------------
# Record format round trips
# ---------------------------------------------------------------------------


class TestRecordFormat:
    def test_seeded_roundtrips(self):
        for seed in range(40):
            check_roundtrip(synthetic_result(seed))

    def test_extreme_floats_roundtrip(self):
        # Shortest-roundtrip repr must preserve these bit patterns exactly.
        extremes = [1e-308, 1e308, 2.0**-52, 0.1 + 0.2, 3.141592653589793]
        check_roundtrip(synthetic_result(1, extra_times=extremes))

    def test_real_experiment_roundtrips(self):
        study = build_toggle_study(
            "rt", dwell_time=0.02, timeslice=0.002, cycles=3, experiments=1, seed=9
        )
        check_roundtrip(CampaignRunner.run_experiment_of(study, 0))

    def test_checksum_tamper_detected(self):
        line = encode_record(synthetic_result(3))
        envelope = json.loads(line)
        envelope["payload"]["duration"] = envelope["payload"]["duration"] + 1.0
        with pytest.raises(StoreIntegrityError, match="checksum"):
            decode_record(json.dumps(envelope))

    def test_truncated_line_detected(self):
        line = encode_record(synthetic_result(4))
        with pytest.raises(StoreIntegrityError):
            decode_record(line[: len(line) // 2])

    def test_unknown_format_version_detected(self):
        line = encode_record(synthetic_result(5))
        envelope = json.loads(line)
        envelope["format"] = 999
        with pytest.raises(StoreIntegrityError, match="format"):
            decode_record(json.dumps(envelope))

    def test_decoded_experiments_share_one_fault_specification(self, tmp_path):
        # Every timeline of every experiment of a study carries the same
        # fault entries; they are parsed once and the (frozen)
        # specification is shared by identity, under both codecs.
        from repro.store.format import _fault_specification

        campaign = build_campaign(experiments=2)
        for codec in ("jsonl", "columnar"):
            store = CampaignStore(tmp_path / codec, codec=codec)
            with store:
                run_and_analyze(campaign, store=store)
            _fault_specification.cache_clear()
            first, second = store.load_results(campaign).study("alpha").experiments
            faults = first.local_timelines["observer"].faults
            assert len(faults) > 0
            assert second.local_timelines["observer"].faults is faults
            assert faults == campaign.study("alpha").fault_specifications()["observer"]
            assert _fault_specification.cache_info().hits > 0

    @pytest.mark.parametrize(
        "entry",
        [
            ["f", "(a:UP", "once"],  # unparsable expression
            ["f", "(a:UP)", "sometimes"],  # unknown trigger
            ["f", "(a:UP)", "once", "network:bogus"],  # unknown network fault
            ["f"],  # too short
            ["f", ["(a:UP)"], "once"],  # unhashable element
        ],
    )
    def test_malformed_fault_entry_is_an_integrity_error_and_is_not_cached(self, entry):
        from repro.store.format import _checksum, _fault_specification

        payload = result_to_dict(synthetic_result(3))
        machine = sorted(payload["local_timelines"])[0]
        payload["local_timelines"][machine]["faults"] = [entry]
        line = json.dumps(
            {"format": 2, "sha256": _checksum(payload), "payload": payload}
        )
        _fault_specification.cache_clear()
        for _ in range(2):  # the second attempt must fail too: nothing was memoised
            with pytest.raises(StoreIntegrityError, match="malformed record payload"):
                decode_record(line)
        # Only the other timelines' (well-formed, identical) entries got in.
        assert _fault_specification.cache_info().currsize <= 1

    if HAVE_HYPOTHESIS:

        @given(
            seed=st.integers(min_value=0, max_value=2**32 - 1),
            extra_times=st.lists(
                st.floats(
                    min_value=0.0,
                    max_value=1e9,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                max_size=6,
            ),
        )
        @settings(max_examples=60, deadline=None)
        def test_hypothesis_roundtrips(self, seed, extra_times):
            check_roundtrip(synthetic_result(seed, extra_times=extra_times))


# ---------------------------------------------------------------------------
# Campaign fixtures
# ---------------------------------------------------------------------------


def build_campaign(experiments: int = 3, *, seed_a: int = 11, seed_b: int = 22) -> CampaignConfig:
    study_a = build_toggle_study(
        "alpha", dwell_time=0.02, timeslice=0.002, cycles=3,
        experiments=experiments, seed=seed_a,
    )
    study_b = build_toggle_study(
        "beta", dwell_time=0.03, timeslice=0.002, cycles=3,
        experiments=experiments, seed=seed_b,
    )
    return CampaignConfig(name="store-test", studies=[study_a, study_b])


DRIVER_MEASURE = StudyMeasure(
    name="driver-active",
    steps=(MeasureStep(StateTuple("driver", "ACTIVE"), TotalDuration("T")),),
)


def campaign_measures_of(analysis) -> dict:
    """Every downstream quantity, in exactly comparable (bit-exact) form."""
    study_measures = {name: DRIVER_MEASURE for name in analysis.studies}
    estimate = estimate_campaign_measure(
        SimpleSamplingMeasure("driver-active"), analysis, study_measures
    )
    return {
        "values": analysis.measure_values(study_measures),
        "acceptance": analysis.acceptance_summary(),
        "seeds": {
            name: [e.result.seed for e in study.experiments]
            for name, study in analysis.studies.items()
        },
        "estimate": estimate.to_dict(),
    }


# ---------------------------------------------------------------------------
# Manifest and fingerprints
# ---------------------------------------------------------------------------


class TestManifest:
    def test_fingerprint_is_stable_and_seed_sensitive(self):
        campaign = build_campaign()
        again = build_campaign()
        assert study_fingerprint(campaign.studies[0]) == study_fingerprint(again.studies[0])
        reseeded = build_campaign(seed_a=99)
        assert study_fingerprint(campaign.studies[0]) != study_fingerprint(reseeded.studies[0])

    def test_fingerprint_ignores_experiment_count(self):
        # Growing a campaign must be able to reuse its archived records.
        small = build_campaign(experiments=2)
        large = build_campaign(experiments=5)
        assert study_fingerprint(small.studies[0]) == study_fingerprint(large.studies[0])

    def test_fingerprint_ignores_measure_phase_weight(self):
        # Re-weighting a stratified estimate is re-analysis, not a new
        # configuration: archived records must stay reusable.
        from dataclasses import replace

        study = build_campaign().studies[0]
        assert study_fingerprint(study) == study_fingerprint(replace(study, weight=2.5))

    def test_fingerprint_sees_declarative_changes(self):
        from dataclasses import replace

        study = build_campaign().studies[0]
        assert study_fingerprint(study) != study_fingerprint(
            replace(study, experiment_timeout=study.experiment_timeout * 2)
        )

    def test_attach_rejects_other_campaign_name(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        store.attach(build_campaign())
        other = build_campaign()
        other.name = "different-campaign"
        with pytest.raises(StoreIntegrityError, match="different-campaign"):
            store.attach(other)

    def test_attach_rejects_changed_study_configuration(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        store.attach(build_campaign())
        with pytest.raises(StoreIntegrityError, match="fingerprint"):
            store.attach(build_campaign(seed_a=99))

    def test_attach_extends_manifest_with_new_studies(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        store.attach(build_campaign())
        extended = build_campaign()
        extended.studies.append(
            build_toggle_study(
                "gamma", dwell_time=0.02, timeslice=0.002, cycles=3,
                experiments=1, seed=33,
            )
        )
        manifest = store.attach(extended)
        assert set(manifest.studies) == {"alpha", "beta", "gamma"}
        # Re-attaching the original (fewer studies) keeps gamma's entry.
        manifest = store.attach(build_campaign())
        assert "gamma" in manifest.studies

    def test_manifest_records_git_sha_and_seeds(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        campaign = build_campaign()
        manifest = store.attach(campaign)
        assert manifest.campaign == "store-test"
        assert manifest.git_sha  # "unknown" outside a checkout, never empty
        assert manifest.studies["alpha"].seed == 11
        reread = store.read_manifest()
        assert reread.to_dict() == manifest.to_dict()

    def test_expected_seeds_follow_derivation_contract(self):
        study = build_campaign().studies[0]
        seeds = expected_seeds(study)
        assert seeds[0] == CampaignRunner._experiment_seed(study, 0)
        assert len(seeds) == study.experiments

    def test_manifest_version_guard(self):
        with pytest.raises(StoreIntegrityError, match="manifest format"):
            Manifest.from_dict({"format_version": 999, "campaign": "x", "studies": {}})


# ---------------------------------------------------------------------------
# Store-backed execution and re-analysis
# ---------------------------------------------------------------------------


class TestStoreBackedRuns:
    def test_store_backed_run_matches_plain_run(self, tmp_path):
        campaign = build_campaign()
        plain = run_and_analyze(campaign)
        stored = run_and_analyze(campaign, store=CampaignStore(tmp_path / "c"))
        assert campaign_measures_of(stored) == campaign_measures_of(plain)

    def test_store_receives_raw_payloads_but_analysis_is_slimmed(self, tmp_path):
        campaign = build_campaign(experiments=1)
        store = CampaignStore(tmp_path / "c")
        analysis = run_and_analyze(campaign, store=store)
        experiment = analysis.study("alpha").experiments[0]
        assert experiment.result.local_timelines == {}
        assert experiment.result.sync_messages == []
        loaded = store.load_study_records("alpha")
        assert set(loaded[0].local_timelines) == {"driver", "observer"}
        assert loaded[0].sync_messages

    def test_keep_raw_results_with_store(self, tmp_path):
        campaign = build_campaign(experiments=1)
        analysis = run_and_analyze(
            campaign,
            ExecutionConfig(keep_raw_results=True),
            store=CampaignStore(tmp_path / "c"),
        )
        assert analysis.study("alpha").experiments[0].result.local_timelines

    def test_fresh_and_resumed_runs_return_the_archived_payload(self, tmp_path):
        # With a store attached, a kept raw payload is the archived one
        # (sync rows on the clock envelopes only), whether the experiment
        # ran now or was loaded; without a store it stays whole.
        campaign = build_campaign(experiments=2)
        keep = ExecutionConfig(keep_raw_results=True)
        whole = run_and_analyze(campaign, keep)
        fresh = run_and_analyze(campaign, keep, store=CampaignStore(tmp_path / "a"))
        resumed = run_and_analyze(campaign, keep, store=CampaignStore(tmp_path / "a"))
        runtime = CampaignRunner(campaign).run(store=CampaignStore(tmp_path / "r"))
        reloaded = CampaignRunner(campaign).run(store=CampaignStore(tmp_path / "r"))
        for name in ("alpha", "beta"):
            results = [
                [experiment.result for experiment in analysis.study(name).experiments]
                for analysis in (fresh, resumed)
            ] + [run.studies[name].experiments for run in (runtime, reloaded)]
            payloads = [[result_to_dict(result) for result in run] for run in results]
            assert payloads[1:] == payloads[:1] * 3
            for kept, full in zip(fresh.study(name).experiments, whole.study(name).experiments):
                assert len(full.result.sync_messages) == 100
                assert 0 < len(kept.result.sync_messages) < len(full.result.sync_messages)
                assert kept.clock_bounds == full.clock_bounds

    def test_store_accepts_path_argument(self, tmp_path):
        campaign = build_campaign(experiments=1)
        run_and_analyze(campaign, store=tmp_path / "by-path")
        assert CampaignStore(tmp_path / "by-path").exists()

    def test_append_rejects_slimmed_payloads(self, tmp_path):
        from dataclasses import replace

        store = CampaignStore(tmp_path / "c")
        result = synthetic_result(7)
        with pytest.raises(StoreError, match="raw payload"):
            store.append(replace(result, local_timelines={}, sync_messages=[]))

    @needs_pool
    def test_pool_backend_streams_and_matches_serial(self, tmp_path):
        campaign = build_campaign()
        serial = run_and_analyze(campaign, store=CampaignStore(tmp_path / "s"))
        pooled = run_and_analyze(
            campaign,
            ExecutionConfig.process_pool(workers=2),
            store=CampaignStore(tmp_path / "p"),
        )
        assert campaign_measures_of(serial) == campaign_measures_of(pooled)
        # Both stores hold every record.
        for directory in ("s", "p"):
            store = CampaignStore(tmp_path / directory)
            reports = store.verify()
            assert all(report.valid == 3 for report in reports.values())

    def test_load_results_orders_by_index(self, tmp_path):
        campaign = build_campaign()
        store = CampaignStore(tmp_path / "c")
        run_and_analyze(campaign, store=store)
        result = store.load_results(campaign)
        for study in campaign.studies:
            indices = [e.index for e in result.studies[study.name].experiments]
            assert indices == sorted(indices) == list(range(study.experiments))


class TestZeroSimulationReanalysis:
    def test_load_analysis_never_invokes_the_simulator(self, tmp_path, monkeypatch):
        campaign = build_campaign()
        store = CampaignStore(tmp_path / "c")
        baseline = campaign_measures_of(run_and_analyze(campaign, store=store))

        def forbidden(self, study, index):  # pragma: no cover - must not run
            raise AssertionError("simulator invoked during store re-analysis")

        monkeypatch.setattr(CampaignRunner, "run_experiment", forbidden)
        # With the original configuration...
        assert campaign_measures_of(store.load_analysis(campaign)) == baseline
        # ...and purely from disk, via reconstructed stub configurations.
        from_disk = campaign_measures_of(store.load_analysis())
        assert from_disk == baseline

    def test_fully_recorded_campaign_resumes_without_simulation(
        self, tmp_path, monkeypatch
    ):
        campaign = build_campaign()
        store = CampaignStore(tmp_path / "c")
        baseline = campaign_measures_of(run_and_analyze(campaign, store=store))

        def forbidden(self, study, index):  # pragma: no cover - must not run
            raise AssertionError("simulator invoked on a fully recorded campaign")

        monkeypatch.setattr(CampaignRunner, "run_experiment", forbidden)
        resumed = run_and_analyze(campaign, store=store)
        assert campaign_measures_of(resumed) == baseline

    def test_loaded_stub_configs_cannot_run_the_runtime_phase(self, tmp_path):
        campaign = build_campaign(experiments=1)
        store = CampaignStore(tmp_path / "c")
        run_and_analyze(campaign, store=store)
        loaded = store.load_results()
        stub = loaded.studies["alpha"].config
        assert isinstance(stub, StoredStudyConfig)
        assert not hasattr(stub, "nodes")  # nothing for the runtime phase
        assert set(stub.fault_specifications()) == {"driver", "observer"}


# ---------------------------------------------------------------------------
# The headline contract: interrupt, resume, bit-identical measures
# ---------------------------------------------------------------------------


class KilledMidway(RuntimeError):
    """Stands in for SIGKILL: aborts the campaign loop mid-flight."""


class TestResumeRoundTrip:
    def interrupt_after(self, store: CampaignStore, campaign: CampaignConfig, count: int):
        """Run the campaign but die after ``count`` completed experiments."""
        completed = 0

        def progress(name: str, done: int, total: int) -> None:
            nonlocal completed
            completed += 1
            if completed >= count:
                raise KilledMidway

        with pytest.raises(KilledMidway):
            run_and_analyze(campaign, ExecutionConfig(progress=progress), store=store)

    def test_interrupted_campaign_resumes_bit_identical(self, tmp_path, monkeypatch):
        campaign = build_campaign(experiments=3)  # 6 experiments total
        baseline = campaign_measures_of(run_and_analyze(campaign))

        store = CampaignStore(tmp_path / "c")
        self.interrupt_after(store, campaign, count=3)
        reports = store.verify()
        assert sum(report.valid for report in reports.values()) == 3

        simulated: list[tuple[str, int]] = []
        original = CampaignRunner.run_experiment

        def counting(self, study, index):
            simulated.append((study.name, index))
            return original(self, study, index)

        monkeypatch.setattr(CampaignRunner, "run_experiment", counting)
        resumed = run_and_analyze(campaign, store=store)
        # Only the three missing experiments were simulated...
        assert len(simulated) == 3
        # ...and every downstream number is bit-identical to the
        # uninterrupted run: measure values, acceptance, seeds, and the
        # campaign estimate with its full moment summary.
        assert campaign_measures_of(resumed) == baseline

    def test_resume_tolerates_torn_trailing_record(self, tmp_path, monkeypatch):
        campaign = build_campaign(experiments=3)
        baseline = campaign_measures_of(run_and_analyze(campaign))

        store = CampaignStore(tmp_path / "c")
        run_and_analyze(campaign, store=store)
        # Tear the last record of alpha's file in half, as a kill -9
        # between write and flush would.
        path = store.records_path("alpha")
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines), encoding="utf-8")
        assert store.verify()["alpha"].corrupt == 1

        simulated: list[tuple[str, int]] = []
        original = CampaignRunner.run_experiment

        def counting(self, study, index):
            simulated.append((study.name, index))
            return original(self, study, index)

        monkeypatch.setattr(CampaignRunner, "run_experiment", counting)
        resumed = run_and_analyze(campaign, store=store)
        assert simulated == [("alpha", 2)]
        assert campaign_measures_of(resumed) == baseline
        # The repaired record superseded nothing (the torn line is dead).
        assert store.verify()["alpha"].valid == 3

    def test_records_with_wrong_seeds_are_not_resumed(self, tmp_path):
        from dataclasses import replace

        campaign = build_campaign(experiments=2)
        store = CampaignStore(tmp_path / "c")
        run_and_analyze(campaign, store=store)
        study = campaign.studies[0]
        records = store.load_study_records("alpha")
        # Forge a record whose seed does not match the derivation contract.
        store.append(replace(records[0], seed=12345))
        resumable = store.resumable_records(study)
        assert resumable[0].seed == expected_seeds(study)[0]

    def test_growing_a_campaign_reuses_existing_records(self, tmp_path, monkeypatch):
        small = build_campaign(experiments=2)
        store = CampaignStore(tmp_path / "c")
        run_and_analyze(small, store=store)

        simulated: list[tuple[str, int]] = []
        original = CampaignRunner.run_experiment

        def counting(self, study, index):
            simulated.append((study.name, index))
            return original(self, study, index)

        monkeypatch.setattr(CampaignRunner, "run_experiment", counting)
        large = build_campaign(experiments=4)
        grown = run_and_analyze(large, store=store)
        assert sorted(simulated) == [("alpha", 2), ("alpha", 3), ("beta", 2), ("beta", 3)]
        assert campaign_measures_of(grown) == campaign_measures_of(run_and_analyze(large))

    @needs_pool
    def test_resume_crosses_backends_bit_identically(self, tmp_path):
        campaign = build_campaign(experiments=3)
        baseline = campaign_measures_of(run_and_analyze(campaign))
        store = CampaignStore(tmp_path / "c")
        self.interrupt_after(store, campaign, count=2)
        # Resume on the *pool* backend from records written serially.
        resumed = run_and_analyze(
            campaign, ExecutionConfig.process_pool(workers=2), store=store
        )
        assert campaign_measures_of(resumed) == baseline

    def test_progress_counts_resumed_experiments_as_done(self, tmp_path):
        campaign = build_campaign(experiments=3)
        store = CampaignStore(tmp_path / "c")
        self.interrupt_after(store, campaign, count=3)
        events: list[tuple[str, int, int]] = []
        run_and_analyze(
            campaign,
            ExecutionConfig(progress=lambda *event: events.append(event)),
            store=store,
        )
        # Alpha's three experiments were loaded from the store (no fresh
        # events), beta's three ran — and because loaded records pre-count
        # as done, the counts still climb to (total, total).
        assert events == [("beta", 1, 3), ("beta", 2, 3), ("beta", 3, 3)]
