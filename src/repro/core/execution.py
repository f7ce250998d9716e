"""Campaign execution engine: the serial backend and the parallel one.

Loki evaluations need thousands of experiments per study to estimate
correct-injection probabilities and coverage measures, and every experiment
is an independent unit of work: it derives its own seed from the public
:meth:`repro.sim.rng.RandomStreams.derive` API, builds its own
:class:`~repro.sim.environment.Environment`, and never shares state with
its siblings.  That makes experiment-level parallelism embarrassingly
available, and this module supplies it behind a small engine:

* :class:`ExecutionConfig` selects a backend, a worker count, a lease
  size, and the fault-tolerance knobs (retry budget, backoff base,
  heartbeat cadence);
* :class:`SerialExecutor` (``"serial"``) runs experiments in-process in
  index order (bit-identical to the historical ``CampaignRunner.run``
  loop);
* :class:`~repro.dist.coordinator.ParallelExecutor` (``"process-pool"``
  and ``"distributed"``, two names for the same engine) leases shards of
  the campaign to forked worker processes over inherited pipes, under a
  coordinator with heartbeats, lease reassignment, and idempotent
  completion resolution — see :mod:`repro.dist`.

Each worker re-derives its experiment seed from the study seed and
experiment index, so scheduling order cannot change any outcome: both
backends produce identical per-experiment seeds, timelines, and measure
values — even across crashes, retries, and duplicated deliveries.

The engine exposes two entry points.  :meth:`ExperimentExecutor.run_campaign`
performs only the runtime phase and returns a full
:class:`~repro.core.campaign.CampaignResult` (raw timelines included).
:meth:`ExperimentExecutor.run_and_analyze` fuses the analysis phase into
the workers via :func:`run_and_analyze_experiment`, and — uniformly on
*every* backend, so the backends stay structurally interchangeable — the
large ``LocalTimeline`` / sync-message payloads are reduced to analyzed
summaries once analysis has consumed them (before they would cross a
process boundary); set ``ExecutionConfig(keep_raw_results=True)`` to
retain them.

Both entry points accept an optional :class:`~repro.store.CampaignStore`.
With a store attached the engine streams every completed experiment's
payload to disk *as it finishes* — through a completion sink invoked in
the coordinating process on every backend — and, on a later run of the
same campaign, loads the experiments whose records already exist (matching
configuration fingerprint and derived seed) instead of re-running them.
That turns any campaign into a durable, resumable, analyze-many artifact;
see :mod:`repro.store`.

The parallel backend requires the ``fork`` start method (study
configurations carry application factories — often closures — that cannot
be pickled; forked workers inherit them through process memory instead).
On platforms without ``fork`` it raises
:class:`~repro.errors.RuntimeConfigurationError`; use
:func:`available_backends` to pick dynamically.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.errors import ExecutionInterrupted, RuntimeConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.campaign import (
        CampaignConfig,
        CampaignResult,
        ExperimentResult,
        StudyConfig,
        StudyResult,
    )
    from repro.pipeline import AnalyzedExperiment, CampaignAnalysis
    from repro.store import CampaignStore

#: Backend name: run every experiment in the calling process, in order.
SERIAL = "serial"

#: Backend name: lease shards of the campaign to supervised, forked worker
#: processes behind the fault-tolerant coordinator in :mod:`repro.dist`.
PROCESS_POOL = "process-pool"

#: Backend name: a second name for :data:`PROCESS_POOL` (the same engine).
DISTRIBUTED = "distributed"

#: Callback signature for progress streaming: ``(study_name, done, total)``.
ProgressCallback = Callable[[str, int, int], None]

#: Callback signature for completion sinks: ``(study_index, experiment_index,
#: value)``, invoked in the coordinating process for every finished task as
#: it completes — before progress is reported — on every backend; what it
#: returns is what the task's slot keeps.  This is the seam the campaign
#: store streams through: each completed experiment is persisted (and its
#: raw payload released) the moment it arrives, instead of accumulating
#: until the campaign ends.
CompletionSink = Callable[[int, int, object], object]


def available_backends() -> tuple[str, ...]:
    """The execution backends usable on this platform."""
    if "fork" in multiprocessing.get_all_start_methods():
        return (SERIAL, PROCESS_POOL, DISTRIBUTED)
    return (SERIAL,)


@dataclass(frozen=True)
class ExecutionConfig:
    """How a campaign's experiments are executed.

    Parameters
    ----------
    backend:
        ``"serial"``, or ``"process-pool"`` / ``"distributed"`` — two
        names for the one parallel engine; every other field means the
        same under both.
    workers:
        Worker processes of the parallel backend; ``None`` uses the
        machine's CPU count.  Ignored by the serial backend.
    chunk_size:
        How many experiments one lease (a contiguous shard of one study)
        carries: the unit of dispatch, retry, and reassignment.  Results
        stream back one experiment at a time whatever the size.  ``None``
        (the default) picks ``max(1, tasks // (4 * workers))``
        automatically — about four waves of leases per worker, so load
        stays balanced while a lost lease stays cheap to re-run; explicit
        values are honored unchanged.
    keep_raw_results:
        Fused run-and-analyze execution normally strips the raw
        ``local_timelines`` / ``sync_messages`` payloads from each analyzed
        experiment once the analysis phase has consumed them (they dominate
        the data volume of large campaigns).  Set ``True`` to keep them.
    progress:
        Optional callback invoked after every finished experiment with
        ``(study_name, completed_in_study, total_in_study)``.  Never
        pickled: it runs in the coordinating process only.
    max_retries:
        How many times the parallel backend re-attempts a lease lost to a
        dead worker before giving up with
        :class:`~repro.errors.ExecutionInterrupted`.  ``0`` disables
        retries; determinism makes every retry bit-safe.
    retry_backoff_base_s:
        First-retry backoff delay; successive retries double it (with
        jitter from the dedicated supervision RNG stream).
    heartbeat_interval_s:
        How often workers beat, and how often the coordinator sweeps for
        silence.
    heartbeat_timeout_s:
        Silence span after which the coordinator declares a worker dead
        and re-queues its lease.  Must exceed the interval.
    """

    backend: str = SERIAL
    workers: int | None = None
    chunk_size: int | None = None
    keep_raw_results: bool = False
    progress: ProgressCallback | None = field(default=None, compare=False)
    max_retries: int = 2
    retry_backoff_base_s: float = 0.05
    heartbeat_interval_s: float = 0.5
    heartbeat_timeout_s: float = 2.0

    def __post_init__(self) -> None:
        if self.backend not in (SERIAL, PROCESS_POOL, DISTRIBUTED):
            raise RuntimeConfigurationError(
                f"unknown execution backend {self.backend!r}; "
                f"expected {SERIAL!r}, {PROCESS_POOL!r}, or {DISTRIBUTED!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise RuntimeConfigurationError(
                f"execution needs at least one worker (got {self.workers})"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise RuntimeConfigurationError(
                f"execution chunk size must be positive (got {self.chunk_size})"
            )
        if self.max_retries < 0:
            raise RuntimeConfigurationError(
                f"max_retries must be >= 0 (got {self.max_retries})"
            )
        if self.retry_backoff_base_s <= 0:
            raise RuntimeConfigurationError(
                f"retry backoff base must be positive (got {self.retry_backoff_base_s})"
            )
        if self.heartbeat_interval_s <= 0:
            raise RuntimeConfigurationError(
                f"heartbeat interval must be positive (got {self.heartbeat_interval_s})"
            )
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise RuntimeConfigurationError(
                f"heartbeat timeout ({self.heartbeat_timeout_s}) must exceed the "
                f"heartbeat interval ({self.heartbeat_interval_s}), or every "
                "in-flight worker would look dead between beats"
            )

    @staticmethod
    def serial(**kwargs) -> "ExecutionConfig":
        """A serial-backend configuration."""
        return ExecutionConfig(backend=SERIAL, **kwargs)

    @staticmethod
    def process_pool(workers: int | None = None, **kwargs) -> "ExecutionConfig":
        """A parallel-backend configuration with ``workers`` processes."""
        return ExecutionConfig(backend=PROCESS_POOL, workers=workers, **kwargs)

    @staticmethod
    def distributed(workers: int | None = None, **kwargs) -> "ExecutionConfig":
        """The same engine as :meth:`process_pool`, under its other name."""
        return ExecutionConfig(backend=DISTRIBUTED, workers=workers, **kwargs)

    def resolved_workers(self) -> int:
        """The concrete worker count the parallel backend will use."""
        if self.workers is not None:
            return self.workers
        return os.cpu_count() or 1

    def resolved_chunk_size(self, task_count: int, workers: int) -> int:
        """The concrete lease size for a campaign of ``task_count`` tasks.

        An explicit ``chunk_size`` is honored as-is; the ``None`` default
        aims for roughly four leases per worker so dispatch overhead is
        amortized without starving the fleet of work to balance.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, task_count // (4 * max(workers, 1)))


# ---------------------------------------------------------------------------
# Task functions
# ---------------------------------------------------------------------------
#
# A task is identified by (study_index, experiment_index) — a pair of small
# picklable integers.  The campaign configuration itself never crosses the
# process boundary: workers are forked after the configuration has been
# published in ``_WORKER_STATE``, so they inherit it through copy-on-write
# process memory.  This is what lets studies carry arbitrary (unpicklable)
# application factories.

_WORKER_STATE: dict = {}


def run_and_analyze_experiment(
    study: "StudyConfig",
    index: int,
    *,
    keep_raw_results: bool = True,
    runner_class: type | None = None,
) -> "AnalyzedExperiment":
    """Run one experiment and immediately run its analysis phase.

    This is the fused runtime+analysis task the execution engine ships to
    workers: fusing means only the analyzed summary — clock bounds, global
    timeline, verification verdicts — needs to travel back to the
    coordinating process.  With ``keep_raw_results=False`` the raw
    ``local_timelines`` and ``sync_messages`` payloads are dropped from the
    returned experiment once analysis has consumed them.  ``runner_class``
    selects the :class:`~repro.core.campaign.CampaignRunner` (sub)class
    whose ``run_experiment`` performs the run.
    """
    from repro.core.campaign import CampaignRunner
    from repro.pipeline import analyze_experiment

    runner = runner_class or CampaignRunner
    result = runner.run_experiment_of(study, index)
    analyzed = analyze_experiment(result, study.fault_specifications())
    if not keep_raw_results:
        analyzed.result = result.slimmed()
    return analyzed


def _runtime_task(task: tuple[int, int]) -> tuple[int, int, "ExperimentResult"]:
    study_index, experiment_index = task
    study = _WORKER_STATE["campaign"].studies[study_index]
    result = _WORKER_STATE["runner"].run_experiment_of(study, experiment_index)
    return study_index, experiment_index, result


def _fused_task(task: tuple[int, int]) -> tuple[int, int, "AnalyzedExperiment"]:
    study_index, experiment_index = task
    study = _WORKER_STATE["campaign"].studies[study_index]
    analyzed = run_and_analyze_experiment(
        study,
        experiment_index,
        keep_raw_results=_WORKER_STATE["keep_raw_results"],
        runner_class=_WORKER_STATE["runner"],
    )
    return study_index, experiment_index, analyzed


def _resume_hint(store: "CampaignStore") -> str:
    """What a crashed campaign's operator should do next."""
    return (
        f"completed experiments are already persisted in the campaign store at "
        f"{store.path}; re-running the same campaign with this store attached "
        "resumes from them instead of restarting"
    )


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class ExperimentExecutor:
    """Base class of the pluggable execution backends."""

    def __init__(self, config: ExecutionConfig) -> None:
        self.config = config

    # -- public API --------------------------------------------------------------------
    #
    # ``runner_class`` lets CampaignRunner subclasses (instrumented or
    # otherwise specialized runners) keep their run_experiment override in
    # the dispatch path; it defaults to the stock CampaignRunner.

    def run_campaign(
        self,
        campaign: "CampaignConfig",
        runner_class: type | None = None,
        store: "CampaignStore | None" = None,
    ) -> "CampaignResult":
        """Runtime phase only: every experiment of every study.

        With a ``store``, every completed experiment is streamed to disk as
        it finishes, and experiments whose records already exist (matching
        configuration fingerprint and seed) are loaded instead of re-run.
        Either way a stored experiment comes back as the store archived it
        (sync rows on the clock envelopes only, see
        :meth:`~repro.store.CampaignStore.append`), so a fresh and a
        resumed run return equal results.
        """
        from repro.core.campaign import CampaignResult, StudyResult

        def sink(study_index: int, experiment_index: int, result):
            return store.append(result)

        slots, cached = self._run(campaign, _runtime_task, runner_class, store, sink)
        for (study_index, experiment_index), result in cached.items():
            slots[study_index][experiment_index] = result
        result = CampaignResult(config=campaign)
        for study, experiments in zip(campaign.studies, slots):
            result.studies[study.name] = StudyResult(config=study, experiments=experiments)
        return result

    def run_study(
        self, study: "StudyConfig", runner_class: type | None = None
    ) -> "StudyResult":
        """Runtime phase of a single study outside a campaign."""
        from repro.core.campaign import CampaignConfig, StudyResult

        campaign = CampaignConfig(name=f"campaign-{study.name}", studies=[study])
        slots, _ = self._run(campaign, _runtime_task, runner_class)
        return StudyResult(config=study, experiments=slots[0])

    def run_and_analyze(
        self,
        campaign: "CampaignConfig",
        runner_class: type | None = None,
        store: "CampaignStore | None" = None,
    ) -> "CampaignAnalysis":
        """Fused runtime + analysis phases for a whole campaign.

        With a ``store``, the campaign becomes durable and resumable:

        * experiments whose records already exist in the store (with the
          study's configuration fingerprint and the engine's derived seed)
          are **loaded and analyzed from disk** — the simulator never runs
          for them — and the rest execute normally;
        * every freshly completed experiment's raw payload is appended to
          the store the moment it reaches the coordinator, then released
          (unless ``keep_raw_results``, which keeps the payload as archived,
          exactly what a resume would load), so memory stays flat while the
          disk accumulates the run-once/analyze-many archive.

        Workers keep their raw payloads only when a store needs them; the
        returned analysis is slimmed identically on every backend, so
        attaching a store never changes any analyzed value.
        """
        from repro.core.campaign import CampaignResult, StudyResult
        from repro.pipeline import CampaignAnalysis, StudyAnalysis, analyze_experiment

        keep_raw = self.config.keep_raw_results

        def slim(analyzed) -> None:
            if not keep_raw:
                analyzed.result = analyzed.result.slimmed()

        def sink(study_index: int, experiment_index: int, analyzed):
            analyzed.result = store.append(analyzed.result)
            slim(analyzed)
            return analyzed

        # With a store, workers must keep raw payloads so the coordinator
        # can persist them; the sink above re-applies the configured slimming.
        slots, cached = self._run(
            campaign, _fused_task, runner_class, store, sink,
            keep_raw_override=None if store is None else True,
        )
        # Analyze the cached records in the coordinator, releasing each raw
        # payload as soon as its analysis (and slimming) is done so the
        # resume path does not hold the whole archive in memory.
        while cached:
            (study_index, experiment_index), result = cached.popitem()
            study = campaign.studies[study_index]
            analyzed = analyze_experiment(result, study.fault_specifications())
            slim(analyzed)
            slots[study_index][experiment_index] = analyzed
        campaign_result = CampaignResult(config=campaign)
        analysis = CampaignAnalysis(campaign=campaign_result)
        for study, analyzed in zip(campaign.studies, slots):
            study_result = StudyResult(
                config=study, experiments=[experiment.result for experiment in analyzed]
            )
            campaign_result.studies[study.name] = study_result
            analysis.studies[study.name] = StudyAnalysis(
                study=study_result, experiments=list(analyzed)
            )
        return analysis

    # -- helpers -----------------------------------------------------------------------

    @staticmethod
    def _tasks(campaign: "CampaignConfig") -> list[tuple[int, int]]:
        return [
            (study_index, experiment_index)
            for study_index, study in enumerate(campaign.studies)
            for experiment_index in range(study.experiments)
        ]

    @staticmethod
    def _partition_cached(
        campaign: "CampaignConfig", store: "CampaignStore | None"
    ) -> tuple[dict[tuple[int, int], "ExperimentResult"], list[tuple[int, int]], list[int]]:
        """Split a campaign into store-cached and still-pending experiments.

        Attaches the store (creating or fingerprint-validating the
        manifest), then returns ``(cached, pending, done_offsets)``:
        records that may be reused keyed by task id, the tasks that must
        actually run, and the per-study count of reused records (so
        progress reporting counts skipped experiments as already done).
        Without a store nothing is cached and everything is pending.

        The cached records are decoded eagerly (seed validation needs the
        payload), so peak memory on resume is proportional to the reused
        portion of the archive; callers release each record as they consume
        it.  A two-pass streaming reader that validates seeds first and
        re-decodes lazily would trade that peak for double decode cost —
        the right move once archives outgrow memory (sharded campaigns).
        """
        cached: dict[tuple[int, int], "ExperimentResult"] = {}
        offsets = [0] * len(campaign.studies)
        if store is not None:
            store.attach(campaign)
            for study_index, study in enumerate(campaign.studies):
                for experiment_index, result in store.resumable_records(study).items():
                    if 0 <= experiment_index < study.experiments:
                        cached[(study_index, experiment_index)] = result
                        offsets[study_index] += 1
        pending = [
            task for task in ExperimentExecutor._tasks(campaign) if task not in cached
        ]
        return cached, pending, offsets

    def _collect(
        self,
        campaign: "CampaignConfig",
        completions: Iterable[tuple[int, int, object]],
        sink: CompletionSink | None = None,
        done_offsets: Sequence[int] | None = None,
    ) -> list[list]:
        """Slot streamed completions into per-study index-ordered lists.

        ``sink`` is invoked for every completion as it arrives (before the
        progress callback), and the slot keeps what it returns — the
        streaming seam the campaign store writes through.
        ``done_offsets`` pre-counts experiments satisfied from the store so
        progress reports completed-of-total over the whole study, not just
        the freshly executed remainder.

        The slots of the tasks that ran come back without holes: a
        completion stream (:meth:`_completions`) yields every task exactly
        once or raises — lost work is reported by
        :class:`~repro.errors.ExecutionInterrupted`, never by a gap.
        """
        slots: list[list] = [[None] * study.experiments for study in campaign.studies]
        done = list(done_offsets) if done_offsets is not None else [0] * len(campaign.studies)
        progress = self.config.progress
        for study_index, experiment_index, value in completions:
            if sink is not None:
                value = sink(study_index, experiment_index, value)
            slots[study_index][experiment_index] = value
            done[study_index] += 1
            if progress is not None:
                study = campaign.studies[study_index]
                progress(study.name, done[study_index], study.experiments)
        return slots

    def _run(
        self,
        campaign: "CampaignConfig",
        task,
        runner_class: type | None,
        store: "CampaignStore | None" = None,
        store_sink: CompletionSink | None = None,
        keep_raw_override: bool | None = None,
    ) -> tuple[list[list], dict[tuple[int, int], "ExperimentResult"]]:
        """Run what ``store`` does not already hold; returns ``(slots, cached)``.

        ``slots`` has every freshly run task's value in place; ``cached``
        are the store's reusable records, for the caller to slot in.
        ``store_sink`` streams completions into ``store`` (ignored without
        one).
        """
        from repro.core.campaign import CampaignRunner

        cached, items, done_offsets = self._partition_cached(campaign, store)
        sink = None if store is None else store_sink
        # Publish the campaign (and runner class) before any worker is
        # forked: workers inherit them through process memory, so
        # unpicklable study contents never cross a process boundary (only
        # (study, experiment) index pairs do).
        _WORKER_STATE["campaign"] = campaign
        _WORKER_STATE["keep_raw_results"] = (
            self.config.keep_raw_results if keep_raw_override is None else keep_raw_override
        )
        _WORKER_STATE["runner"] = runner_class or CampaignRunner
        completions = self._completions(campaign, task, items)
        try:
            return self._collect(campaign, completions, sink, done_offsets), cached
        except ExecutionInterrupted as error:
            if store is not None:
                error.add_note(_resume_hint(store))
            raise
        finally:
            # Also reached when a sink or progress callback raised: closing
            # the stream is what reaps a parallel backend's workers.
            completions.close()
            _WORKER_STATE.clear()

    def _completions(
        self, campaign: "CampaignConfig", task, items: list[tuple[int, int]]
    ) -> Iterator[tuple[int, int, object]]:
        """Run ``items`` through ``task``, yielding each result as it finishes."""
        raise NotImplementedError


class SerialExecutor(ExperimentExecutor):
    """Run every experiment in the calling process, in index order."""

    def _completions(
        self, campaign: "CampaignConfig", task, items: list[tuple[int, int]]
    ) -> Iterator[tuple[int, int, object]]:
        return (task(item) for item in items)


def build_executor(config: ExecutionConfig | None) -> ExperimentExecutor:
    """Instantiate the executor class selected by ``config``."""
    config = config or ExecutionConfig()
    if config.backend == SERIAL:
        return SerialExecutor(config)
    # Imported lazily: repro.dist builds on this module.
    from repro.dist.coordinator import ParallelExecutor

    return ParallelExecutor(config)
