"""Chaos tests: fault injection into the campaign orchestrator itself.

The paper's methodology — inject faults, observe whether the system's
behaviour stays within its specification — applied to the engine that
runs the paper's campaigns.  Each test injects a real fault into a live
coordinator/worker fleet (SIGKILL mid-shard, SIGKILL mid-send, a runner
that kills its own worker, dropped heartbeats, a hung worker, duplicated
completions, failing forks, a killed coordinator) and then asserts the
*strongest* possible specification: the recovered campaign's measures and
its store fingerprint are **bit-identical** to an undisturbed serial run.
The seed-derivation contract is what makes that assertion possible —
every experiment's seed is a pure function of (study, index), so no
matter which worker re-ran what, the merged records must match exactly.

There is one parallel engine with two backend names
(``test_both_parallel_names_build_the_same_executor_class`` in
``tests/test_execution.py`` pins that both build it); the scenarios here
run under one of them.

This module is self-contained (the ``tests/chaos/`` directory is its own
rootdir for imports) so CI's ``chaos-smoke`` job can run it in isolation.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps.toggle import build_toggle_study
from repro.core.campaign import CampaignConfig, CampaignRunner
from repro.core.execution import (
    PROCESS_POOL,
    ExecutionConfig,
    available_backends,
    build_executor,
)
from repro.dist import CampaignCoordinator, ParallelExecutor, WorkerOptions
from repro.errors import ExecutionInterrupted
from repro.measures import (
    MeasureStep,
    SimpleSamplingMeasure,
    StateTuple,
    StudyMeasure,
    TotalDuration,
    estimate_campaign_measure,
)
from repro.pipeline import run_and_analyze
from repro.store import CampaignStore

pytestmark = pytest.mark.skipif(
    PROCESS_POOL not in available_backends(),
    reason="the parallel backend needs the fork start method",
)

#: One name of the one parallel engine (``distributed`` builds the same class).
parallel_name = pytest.mark.parametrize("backend", [PROCESS_POOL])

#: Supervision tuned for chaos: fast heartbeats, fast death verdicts,
#: near-instant retries — so injected faults are detected in tens of
#: milliseconds and each test finishes in well under a second.
CHAOS_KNOBS = dict(
    heartbeat_interval_s=0.05,
    heartbeat_timeout_s=0.25,
    retry_backoff_base_s=0.01,
)

#: What every worker death the engine retries is announced with, and what
#: it is reported with once the retry budget is gone.
WORKER_DIED = r"worker \d+ died"


def build_campaign(experiments: int = 8) -> CampaignConfig:
    study_a = build_toggle_study(
        "alpha", dwell_time=0.02, timeslice=0.002, cycles=3,
        experiments=experiments, seed=11,
    )
    study_b = build_toggle_study(
        "beta", dwell_time=0.03, timeslice=0.002, cycles=3,
        experiments=experiments, seed=22,
    )
    return CampaignConfig(name="chaos-test", studies=[study_a, study_b])


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


def serial_baseline(campaign, tmp_path):
    """The undisturbed run every chaos run must match bit for bit."""
    store = CampaignStore(tmp_path / "serial")
    analysis = run_and_analyze(campaign, ExecutionConfig.serial(), store=store)
    return campaign_measures_of(analysis), store.content_fingerprint()


def chaos_executor(coordinator_class, config) -> ParallelExecutor:
    """The engine with a fault-injecting coordinator behind its test seam."""
    executor = build_executor(config)
    executor.coordinator_class = coordinator_class
    return executor


def run_with_chaos(coordinator_class, campaign, config, tmp_path, runner_class=None):
    """One chaos run, returning (measures, fingerprint, supervision stats)."""
    executor = chaos_executor(coordinator_class, config)
    store = CampaignStore(tmp_path / "chaos")
    analysis = executor.run_and_analyze(campaign, runner_class=runner_class, store=store)
    return campaign_measures_of(analysis), store.content_fingerprint(), executor.stats


class GatedRunner(CampaignRunner):
    """Runs experiment 0 of each study at once; every other experiment first
    waits for the gate file.  So until the gate opens, a worker that has
    completed anything is provably stuck in the middle of its shard — which
    is where :func:`killer_of` wants its victims.  Results are identical to
    the plain runner (only scheduling is disturbed)."""

    gate = ""  # set by each test before running

    @classmethod
    def run_experiment_of(cls, study, index):
        deadline = time.monotonic() + 30.0
        while index > 0 and not os.path.exists(cls.gate) and time.monotonic() < deadline:
            time.sleep(0.001)
        return super().run_experiment_of(study, index)


def killer_of(victims: int, gate: Path) -> type[CampaignCoordinator]:
    """A coordinator that SIGKILLs the first ``victims`` distinct workers to
    complete anything, then opens ``gate`` (see :class:`GatedRunner`).

    Each victim is joined before the gate opens, so its pipe has closed
    and its death is readable before any survivor can deliver more
    completions: a test that stops consuming early (the coordinator-death
    test) still reads the death, however long a large process takes to be
    torn down.
    """
    GatedRunner.gate = str(gate)

    class Killer(CampaignCoordinator):
        killed: list[int] = []

        def chaos_on_completion(self, worker_id, study_index, experiment_index):
            if len(self.killed) < victims and worker_id not in self.killed:
                self.killed.append(worker_id)
                victim = self.workers[worker_id].process
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10.0)
                if len(self.killed) == victims:
                    gate.write_text("open")

    return Killer


class TestWorkerSigkill:
    @parallel_name
    def test_sigkill_mid_shard_recovers_bit_identical(self, backend, tmp_path):
        # SIGKILL the worker that delivers the first completion.  Its
        # shard (6 experiments) is mid-flight, so the lease is torn and
        # must be re-run elsewhere; the already-delivered experiment comes
        # back a second time and must be dropped, not double-counted.
        killer = killer_of(1, tmp_path / "gate")
        campaign = build_campaign(experiments=8)
        baseline, base_print = serial_baseline(campaign, tmp_path)
        config = ExecutionConfig(backend=backend, workers=3, chunk_size=6, **CHAOS_KNOBS)
        with pytest.warns(UserWarning, match=WORKER_DIED):
            measures, fingerprint, stats = run_with_chaos(
                killer, campaign, config, tmp_path, runner_class=GatedRunner
            )
        assert len(killer.killed) == 1, "chaos never fired"
        assert stats["workers_lost"] >= 1
        assert stats["reassignments"] >= 1
        assert stats["duplicates_dropped"] >= 1
        assert stats["completions"] == 16
        assert measures == baseline
        assert fingerprint == base_print

    def test_sigkill_two_workers_still_converges(self, tmp_path):
        # Lose two of three workers, each stuck in the six-experiment
        # shard whose first result it just delivered; the campaign must
        # still finish bit-identically.
        killer = killer_of(2, tmp_path / "gate")
        campaign = build_campaign(experiments=8)
        baseline, base_print = serial_baseline(campaign, tmp_path)
        config = ExecutionConfig.distributed(workers=3, chunk_size=6, **CHAOS_KNOBS)
        with pytest.warns(UserWarning, match=WORKER_DIED):
            measures, fingerprint, stats = run_with_chaos(
                killer, campaign, config, tmp_path, runner_class=GatedRunner
            )
        assert len(killer.killed) == 2
        assert stats["workers_lost"] >= 2
        assert stats["reassignments"] >= 2
        assert stats["duplicates_dropped"] >= 2
        assert measures == baseline
        assert fingerprint == base_print

    def test_sigkill_mid_send_is_a_death_not_a_completion(self, tmp_path):
        # Every result is padded past what a pipe buffers, so a worker
        # writing one blocks until the coordinator reads.  The coordinator
        # dawdles on the first completion until its sender is stuck inside
        # the *next* send, then SIGKILLs it: the pipe now holds the front
        # of a message and an EOF.  That must read as a death — the
        # experiment re-run elsewhere — never as a (truncated) completion.
        class PaddedRunner(CampaignRunner):
            @classmethod
            def run_experiment_of(cls, study, index):
                result = super().run_experiment_of(study, index)
                result.padding = bytes(4 << 20)
                return result

        class MidSendKiller(CampaignCoordinator):
            killed: list[int] = []

            def chaos_on_completion(self, worker_id, study_index, experiment_index):
                if not self.killed:
                    self.killed.append(worker_id)
                    victim = self.workers[worker_id]
                    deadline = time.monotonic() + 10.0
                    while not victim.connection.poll() and time.monotonic() < deadline:
                        time.sleep(0.01)
                    assert victim.connection.poll(), "the next send never started"
                    time.sleep(0.05)  # let the writer fill the pipe and block
                    os.kill(victim.process.pid, signal.SIGKILL)
                    victim.process.join(timeout=10.0)

        campaign = build_campaign(experiments=3)
        baseline = run_and_analyze(campaign, ExecutionConfig.serial())
        config = ExecutionConfig.process_pool(
            workers=1, chunk_size=3, keep_raw_results=True, **CHAOS_KNOBS
        )
        executor = chaos_executor(MidSendKiller, config)
        with pytest.warns(UserWarning, match=f"{WORKER_DIED}.*connection lost"):
            analysis = executor.run_and_analyze(campaign, runner_class=PaddedRunner)
        assert MidSendKiller.killed, "chaos never fired"
        assert executor.stats["workers_lost"] >= 1
        assert executor.stats["reassignments"] >= 1
        assert executor.stats["completions"] == 6
        assert campaign_measures_of(analysis) == campaign_measures_of(baseline)


class TestDroppedHeartbeats:
    @parallel_name
    def test_silent_hung_worker_is_declared_dead_and_reassigned(self, backend, tmp_path):
        # Worker 0 takes a lease, then hangs with its heartbeat beacon
        # disabled — the fault the heartbeat monitor exists for.  Its
        # silence must cross the timeout, the lease must move to a healthy
        # worker, and the result must not change by a bit.
        class Muzzled(CampaignCoordinator):
            def worker_options(self, worker_id: int) -> WorkerOptions:
                options = super().worker_options(worker_id)
                if worker_id == 0:
                    return replace(
                        options, heartbeat_interval_s=None, stall_before_work_s=60.0
                    )
                return options

        campaign = build_campaign(experiments=4)
        baseline, base_print = serial_baseline(campaign, tmp_path)
        config = ExecutionConfig(backend=backend, workers=2, chunk_size=4, **CHAOS_KNOBS)
        started = time.monotonic()
        with pytest.warns(UserWarning, match=f"{WORKER_DIED}.*no heartbeat"):
            measures, fingerprint, stats = run_with_chaos(Muzzled, campaign, config, tmp_path)
        assert time.monotonic() - started < 30.0, "the hung worker was waited for, not killed"
        assert stats["workers_lost"] >= 1
        assert stats["reassignments"] >= 1
        assert measures == baseline
        assert fingerprint == base_print


class TestDuplicatedCompletions:
    @parallel_name
    def test_every_record_sent_twice_is_merged_once(self, backend, tmp_path):
        # Every worker sends every completion twice (an at-least-once
        # delivery fault).  Idempotent first-wins dedup must keep exactly
        # one record per experiment — the store fingerprint proves no
        # duplicate ever reached disk.
        class Stutterer(CampaignCoordinator):
            def worker_options(self, worker_id: int) -> WorkerOptions:
                return replace(
                    super().worker_options(worker_id), duplicate_completions=True
                )

        campaign = build_campaign(experiments=4)
        baseline, base_print = serial_baseline(campaign, tmp_path)
        config = ExecutionConfig(backend=backend, workers=2, chunk_size=2, **CHAOS_KNOBS)
        measures, fingerprint, stats = run_with_chaos(Stutterer, campaign, config, tmp_path)
        assert stats["completions"] == 8
        assert stats["duplicates_dropped"] >= stats["completions"] - 2
        assert measures == baseline
        assert fingerprint == base_print


class TestCoordinatorDeath:
    def test_killed_coordinator_heals_from_store_under_chaos(self, tmp_path):
        # Compound fault: a worker is SIGKILLed mid-shard AND the
        # coordinating process dies partway through (simulated by raising
        # out of the progress callback, which abandons the completion
        # stream exactly like a crash would).  A rerun against the same
        # store must heal to the serial baseline, resimulating only what
        # is missing.
        class CoordinatorKilled(RuntimeError):
            pass

        campaign = build_campaign(experiments=6)
        baseline, base_print = serial_baseline(campaign, tmp_path)
        store_path = tmp_path / "chaos"

        completions = 0

        def die_after_five(name: str, done: int, total: int) -> None:
            nonlocal completions
            completions += 1
            if completions >= 5:
                raise CoordinatorKilled()

        first = ExecutionConfig.distributed(
            workers=2, chunk_size=3, progress=die_after_five, **CHAOS_KNOBS
        )
        executor = chaos_executor(killer_of(1, tmp_path / "gate"), first)
        with pytest.warns(UserWarning, match=WORKER_DIED):
            with pytest.raises(CoordinatorKilled):
                executor.run_and_analyze(
                    campaign, runner_class=GatedRunner, store=CampaignStore(store_path)
                )
        # Abandoning the stream still reaped the whole fleet.
        assert executor.stats["completions"] == 5
        persisted = sum(
            report.valid for report in CampaignStore(store_path).verify().values()
        )
        assert persisted >= 5

        # The restarted campaign: no chaos this time, same store.
        rerun = ExecutionConfig.distributed(workers=2, chunk_size=3, **CHAOS_KNOBS)
        analysis = run_and_analyze(campaign, rerun, store=CampaignStore(store_path))
        assert campaign_measures_of(analysis) == baseline
        assert CampaignStore(store_path).content_fingerprint() == base_print


# ---------------------------------------------------------------------------
# A runner that kills its own worker: survive, report, resume
# ---------------------------------------------------------------------------


class SuicidalRunner(CampaignRunner):
    """SIGKILLs its own worker process at alpha:1 — once, gated by a
    sentinel file, so the retried attempt succeeds.  Results are otherwise
    identical to the plain runner (only scheduling is disturbed)."""

    sentinel = ""  # set by each test before running

    @classmethod
    def run_experiment_of(cls, study, index):
        if study.name == "alpha" and index == 1 and not os.path.exists(cls.sentinel):
            Path(cls.sentinel).write_text("died once")
            os.kill(os.getpid(), signal.SIGKILL)
        return super().run_experiment_of(study, index)


class AlwaysCrashingRunner(CampaignRunner):
    """SIGKILLs its worker at alpha:1 on every attempt (an unretriable
    fault, e.g. a deterministic OOM kill)."""

    @classmethod
    def run_experiment_of(cls, study, index):
        if study.name == "alpha" and index == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().run_experiment_of(study, index)


class TestRunnerCrashRecovery:
    @parallel_name
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_crash_is_retried_and_campaign_completes(self, backend, workers, tmp_path):
        # With one worker the lost lease has no survivor to move to: the
        # campaign completes only because a replacement is forked.
        campaign = build_campaign(experiments=3)
        baseline, base_print = serial_baseline(campaign, tmp_path)
        SuicidalRunner.sentinel = str(tmp_path / "died")
        config = ExecutionConfig(backend=backend, workers=workers, max_retries=2, **CHAOS_KNOBS)
        with pytest.warns(UserWarning, match=f"{WORKER_DIED}.*retry 1 of 2.*alpha:1"):
            measures, fingerprint, stats = run_with_chaos(
                CampaignCoordinator, campaign, config, tmp_path, runner_class=SuicidalRunner
            )
        assert (tmp_path / "died").exists(), "chaos never fired"
        assert stats["workers_lost"] >= 1
        assert stats["reassignments"] >= 1
        assert measures == baseline
        assert fingerprint == base_print

    @parallel_name
    def test_exhausted_retries_report_the_dead_experiments(self, backend):
        campaign = build_campaign(experiments=3)
        config = ExecutionConfig(backend=backend, workers=2, max_retries=0, **CHAOS_KNOBS)
        with pytest.raises(ExecutionInterrupted, match=WORKER_DIED) as info:
            build_executor(config).run_and_analyze(
                campaign, runner_class=AlwaysCrashingRunner
            )
        # The report names what was lost, not just that something was.
        assert ("alpha", 1) in info.value.pending
        assert "alpha:1" in str(info.value)

    def test_crash_with_store_hints_at_resume_and_heals(self, tmp_path):
        campaign = build_campaign(experiments=3)
        baseline, base_print = serial_baseline(campaign, tmp_path)
        SuicidalRunner.sentinel = str(tmp_path / "died-with-store")
        config = ExecutionConfig.process_pool(
            workers=2, max_retries=0, chunk_size=1, **CHAOS_KNOBS
        )
        with pytest.raises(ExecutionInterrupted) as info:
            build_executor(config).run_and_analyze(
                campaign, runner_class=SuicidalRunner, store=CampaignStore(tmp_path / "d")
            )
        assert any("campaign store" in note for note in info.value.__notes__)
        # Following the hint heals: the sentinel now exists, so the rerun
        # (same store) resumes past the persisted records and completes.
        resumed = build_executor(config).run_and_analyze(
            campaign, runner_class=SuicidalRunner, store=CampaignStore(tmp_path / "d")
        )
        assert campaign_measures_of(resumed) == baseline
        assert CampaignStore(tmp_path / "d").content_fingerprint() == base_print


# ---------------------------------------------------------------------------
# Workers that never start: degrade, then fall back
# ---------------------------------------------------------------------------


def fork_fails_for(*worker_ids: int) -> type[CampaignCoordinator]:
    """A coordinator for which starting the given workers fails like ``fork`` can."""

    class ForkStarved(CampaignCoordinator):
        def worker_options(self, worker_id: int) -> WorkerOptions:
            if worker_id in worker_ids:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return super().worker_options(worker_id)

    return ForkStarved


class TestGracefulDegradation:
    @parallel_name
    def test_zero_workers_falls_back_to_serial(self, backend):
        campaign = build_campaign(experiments=2)
        serial = campaign_measures_of(run_and_analyze(campaign, ExecutionConfig.serial()))
        executor = chaos_executor(
            fork_fails_for(0, 1), ExecutionConfig(backend=backend, workers=2)
        )
        with pytest.warns(UserWarning, match="falling back to in-process serial"):
            analysis = executor.run_and_analyze(campaign)
        assert campaign_measures_of(analysis) == serial
        assert executor.stats["completions"] == 0  # nothing ran in a worker

    @parallel_name
    def test_missing_workers_degrade_with_warning(self, backend):
        # One worker of three cannot be forked: the campaign completes on
        # the two that could, warning about the degradation.
        campaign = build_campaign(experiments=3)
        serial = campaign_measures_of(run_and_analyze(campaign, ExecutionConfig.serial()))
        executor = chaos_executor(
            fork_fails_for(0), ExecutionConfig(backend=backend, workers=3, chunk_size=1)
        )
        with pytest.warns(UserWarning, match="only 2 could be started; proceeding degraded"):
            analysis = executor.run_and_analyze(campaign)
        assert campaign_measures_of(analysis) == serial
        assert executor.stats["completions"] == 6
