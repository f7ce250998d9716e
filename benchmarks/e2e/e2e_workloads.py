"""The six workloads: what is set up, what one timed run does, what is checked.

Every workload offers the same four steps to the driver in ``run.py``:

``setup()``
    everything a user does before the measured call — build the configs,
    populate the archive, run a small warm-up through the same backend.
    Called several times per process; its median is ``setup_s``.
``run()``
    one timed run.  Only public API named in the README is called here.
``observe(payload)``
    untimed, right after each run: boil the payload down to one line per
    experiment (the digest input) and count intrinsic failures, so the
    payload itself can be dropped before the next run.
``reference()``
    untimed, after the last run: the lines every run must reproduce —
    ``protocol_serial``'s, computed afresh — or ``None`` when the workload
    is its own reference and only has to agree with itself across runs.

The load is closed-loop from this one process; parallel workloads use
exactly :data:`WORKERS` workers.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import zip_longest
from pathlib import Path
from typing import Any, Callable

from e2e_common import Sizes, cpu_seconds, require_program

require_program()

from repro import (  # noqa: E402 - src/ is put on the path just above
    DEFAULT_REGISTRY,
    CampaignConfig,
    CampaignStore,
    ExecutionConfig,
    run_and_analyze,
)
from repro.measures import SimpleSamplingMeasure, estimate_campaign_measure  # noqa: E402
from repro.sim import LinkProfile, NetworkModel, RandomStreams, SimKernel  # noqa: E402

#: The base campaign: one representative scenario per protocol application.
BASE_SCENARIOS = ("raft-election", "quorum-register", "swim-detector", "dfs-master")

#: Worker processes of every parallel workload (the reference box has 2 CPUs).
WORKERS = 2

CAMPAIGN_MEASURE = SimpleSamplingMeasure("e2e-pooled")


def build_campaign(seed: int, experiments: int, name: str = "e2e-c400") -> CampaignConfig:
    """The base campaign at ``experiments`` per scenario; the program sees only this."""
    return DEFAULT_REGISTRY.build_campaign(
        names=BASE_SCENARIOS, experiments=experiments, seed=seed, campaign_name=name
    )


def study_measures() -> dict:
    """Each base scenario's own headline study measure, keyed by study name."""
    return {name: DEFAULT_REGISTRY.get(name).measure_factory() for name in BASE_SCENARIOS}


def experiment_line(experiment: Any, value: float | None) -> str:
    """One experiment as the digest sees it.

    Seed, completion, acceptance, the study measure's value bit for bit,
    and the size of the global timeline: anything a backend, a codec or a
    re-analysis could get wrong changes at least one field.
    """
    result = experiment.result
    if not experiment.accepted:
        shown = "-"
    elif value is None:
        shown = "none"
    else:
        shown = float(value).hex()
    return (
        f"{result.study}:{result.index}:{result.seed}:{int(result.completed)}:"
        f"{int(experiment.accepted)}:{shown}:{len(experiment.global_timeline.entries)}"
    )


@dataclass
class Observation:
    """What one run left behind once its payload is gone."""

    lines: list[str]  # digest input, one per operation (or per phase for the storm)
    failed: int = 0  # operations that failed on their own account
    checks: list[str] = field(default_factory=list)  # compared, not digested
    facts: dict[str, float] = field(default_factory=dict)  # exact counts for layers


def experiment_lines(experiments: list, values: list[float | None]) -> list[str]:
    """Digest lines of one study: ``values`` holds one entry per *accepted* experiment."""
    remaining = iter(values)
    return [
        experiment_line(experiment, next(remaining) if experiment.accepted else None)
        for experiment in experiments
    ]


def observe_analysis(analysis: Any, measures: dict) -> Observation:
    """Digest lines of a campaign analysis; incomplete experiments are failures."""
    lines: list[str] = []
    failed = 0
    for name, study in analysis.studies.items():
        lines += experiment_lines(study.experiments, study.measure_values(measures[name]))
        failed += sum(not experiment.result.completed for experiment in study.experiments)
    return Observation(lines=lines, failed=failed)


def estimate_check(estimate: Any) -> str:
    """The campaign estimate, bit for bit, as a check line."""
    return f"estimate:{float(estimate.value).hex()}"


def results_digest(lines: list[str]) -> str:
    """SHA-256 over the per-operation lines."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def count_failed(
    observation: Observation,
    reference: Observation,
    warnings_seen: list[str],
    operations: int,
) -> int:
    """Failed operations of one run, out of ``operations``.

    A line that differs from the reference's (or is missing) is a failed
    operation, as is each failed check.  Any warning during a run — a
    parallel backend only warns when it lost workers or fell back to
    serial — means the run did not measure what it claims to, so every
    operation of that run counts as failed.
    """
    if warnings_seen:
        return operations
    pairs = zip_longest(observation.lines, reference.lines)
    mismatched = sum(1 for seen, expected in pairs if seen != expected)
    mismatched += sum(
        1
        for seen, expected in zip_longest(observation.checks, reference.checks)
        if seen != expected
    )
    return min(operations, observation.failed + mismatched)


class Workload:
    """Common state of a workload; see the module docstring for the steps."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self._directories = 0

    @property
    def operations(self) -> int:
        """Operations one timed run attempts."""
        raise NotImplementedError

    def fresh_directory(self) -> Path:
        """A new, not yet existing path under the work directory."""
        self._directories += 1
        return self.workdir / f"{self.name}-{self._directories}"

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Any:
        raise NotImplementedError

    def observe(self, payload: Any) -> Observation:
        raise NotImplementedError

    def reference(self) -> Observation | None:
        return None


# ---------------------------------------------------------------------------
# protocol_serial / protocol_pool / protocol_dist / protocol_store
# ---------------------------------------------------------------------------


class ProtocolWorkload(Workload):
    """The base campaign through ``run_and_analyze`` on one backend."""

    def __init__(
        self,
        name: str,
        execution: Callable[..., ExecutionConfig],
        seed: int,
        sizes: Sizes,
        workdir: Path,
        with_store: bool = False,
        own_reference: bool = False,
        parallel_layer: str | None = None,
    ) -> None:
        super().__init__(seed, sizes, workdir)
        self.name = name
        self.execution = execution
        self.with_store = with_store
        self.own_reference = own_reference
        #: The layer a parallel backend's overhead metrics are reported under.
        self.parallel_layer = parallel_layer
        self.campaign: CampaignConfig | None = None
        self.measures: dict = {}
        #: Wall and CPU seconds of the reference run, for the overhead layers.
        self.reference_cost: tuple[float, float] | None = None

    @property
    def operations(self) -> int:
        return self.sizes.experiments * len(BASE_SCENARIOS)

    def setup(self) -> None:
        self.campaign = build_campaign(self.seed, self.sizes.experiments)
        self.measures = study_measures()
        warmup = build_campaign(self.seed, self.sizes.warmup_experiments, "e2e-warmup")
        self.observe(self.campaign_run(warmup))

    def campaign_run(self, campaign: CampaignConfig, **execution: Any) -> Any:
        """The user path: run + analyse, study measures, campaign estimate."""
        if not self.with_store:
            analysis = run_and_analyze(campaign, execution=self.execution(**execution))
            estimate = estimate_campaign_measure(CAMPAIGN_MEASURE, analysis, self.measures)
            return analysis, estimate, None
        path = self.fresh_directory()
        with CampaignStore(path, codec="columnar") as store:
            analysis = run_and_analyze(
                campaign, execution=self.execution(**execution), store=store
            )
            estimate = estimate_campaign_measure(CAMPAIGN_MEASURE, analysis, self.measures)
            fingerprint = store.content_fingerprint()
        return analysis, estimate, (path, fingerprint)

    def run(self) -> Any:
        return self.campaign_run(self.campaign)

    def observe(self, payload: Any) -> Observation:
        analysis, estimate, stored = payload
        observation = observe_analysis(analysis, self.measures)
        observation.checks.append(estimate_check(estimate))
        if stored is not None:
            path, fingerprint = stored
            observation.checks.append(f"store:{fingerprint}")
            observation.facts["store_bytes"] = float(store_bytes(path))
            shutil.rmtree(path)
        return observation

    def reference(self) -> Observation | None:
        if self.own_reference:
            return None
        cpu_start, start = cpu_seconds(), time.perf_counter()
        analysis = run_and_analyze(
            self.campaign, execution=ExecutionConfig.serial(keep_raw_results=self.with_store)
        )
        estimate = estimate_campaign_measure(CAMPAIGN_MEASURE, analysis, self.measures)
        self.reference_cost = (time.perf_counter() - start, cpu_seconds() - cpu_start)
        observation = observe_analysis(analysis, self.measures)
        observation.checks.append(estimate_check(estimate))
        if self.with_store:
            # An independent route to the same archive: append the serial
            # run's raw results one by one, then fingerprint.
            path = self.fresh_directory()
            with CampaignStore(path, codec="columnar") as store:
                store.attach(self.campaign)
                for study in analysis.studies.values():
                    for experiment in study.experiments:
                        store.append(experiment.result)
                observation.checks.append(f"store:{store.content_fingerprint()}")
            shutil.rmtree(path)
        return observation


def store_bytes(path: Path) -> int:
    """Bytes under the store's ``records/`` directory."""
    return sum(file.stat().st_size for file in (path / "records").iterdir())


# ---------------------------------------------------------------------------
# archive_reanalyze
# ---------------------------------------------------------------------------


class ArchiveReanalyze(Workload):
    """Run once in set-up, then re-analyse the archive with zero simulation."""

    name = "archive_reanalyze"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        super().__init__(seed, sizes, workdir)
        self.campaign: CampaignConfig | None = None
        self.measures: dict = {}
        self.path: Path | None = None
        self._reference: Observation | None = None

    @property
    def operations(self) -> int:
        return self.sizes.archive_passes * self.sizes.experiments * len(BASE_SCENARIOS)

    def setup(self) -> None:
        if self.path is not None:
            shutil.rmtree(self.path)
        self.campaign = build_campaign(self.seed, self.sizes.experiments)
        self.measures = study_measures()
        self.path = self.fresh_directory()
        with CampaignStore(self.path, codec="columnar") as store:
            analysis = run_and_analyze(
                self.campaign, execution=ExecutionConfig.serial(), store=store
            )
        estimate = estimate_campaign_measure(CAMPAIGN_MEASURE, analysis, self.measures)
        self._reference = observe_analysis(analysis, self.measures)
        self._reference.checks = [estimate_check(estimate)] * self.sizes.archive_passes
        self.reanalyze()  # warm-up pass

    def reanalyze(self) -> tuple[Any, Any]:
        """One pass: archive -> analysis -> study measures -> campaign estimate."""
        analysis = CampaignStore(self.path).load_analysis(self.campaign)
        return analysis, estimate_campaign_measure(CAMPAIGN_MEASURE, analysis, self.measures)

    def run(self) -> Any:
        estimates = []
        analysis = None
        for _ in range(self.sizes.archive_passes):
            analysis, estimate = self.reanalyze()
            estimates.append(estimate)
        return analysis, estimates

    def observe(self, payload: Any) -> Observation:
        analysis, estimates = payload
        observation = observe_analysis(analysis, self.measures)
        observation.checks = [estimate_check(estimate) for estimate in estimates]
        return observation

    def reference(self) -> Observation | None:
        return self._reference


# ---------------------------------------------------------------------------
# sim_storm
# ---------------------------------------------------------------------------

#: ``(phase, loss, duplicate, reorder)`` of the three message phases.
LINK_PHASES = (
    ("healthy", 0.0, 0.0, 0.0),
    ("lossy", 0.10, 0.0, 0.0),
    ("dup_reorder", 0.0, 0.05, 0.05),
)


@dataclass
class PhaseCounts:
    """What one storm phase did, as the kernel and the network counted it."""

    phase: str
    attempted: int
    handled: int  # callbacks the benchmark itself saw run
    events_processed: int
    sent: int  # messages sent, or timers scheduled
    delivered: int  # deliveries the network committed to, or timers left uncancelled
    dropped: int  # messages lost, or timers cancelled
    duplicated: int = 0
    reordered: int = 0
    delivery_events: int = 0
    compactions: int = 0

    def line(self) -> str:
        return (
            f"{self.phase}:attempted={self.attempted}:handled={self.handled}:"
            f"events={self.events_processed}:sent={self.sent}:delivered={self.delivered}:"
            f"dropped={self.dropped}:duplicated={self.duplicated}:"
            f"reordered={self.reordered}:compactions={self.compactions}"
        )

    def unaccounted(self) -> int:
        """Operations the counters cannot account for (0 on a correct kernel)."""
        return (
            abs(self.sent - self.attempted)
            + abs(self.delivered - self.handled)
            + abs(self.events_processed - self.delivered)
            + abs(self.delivered + self.dropped - self.duplicated - self.sent)
        )


def message_phase(
    phase: str, seed: int, loss: float, duplicate: float, reorder: float,
    messages: int, burst: int,
) -> PhaseCounts:
    """Send ``messages`` over one link, ``burst`` in flight at a time."""
    kernel = SimKernel()
    model = NetworkModel(
        kernel,
        RandomStreams(seed),
        default_profile=LinkProfile(
            base_delay=150e-6, jitter_mean=30e-6, loss_probability=loss
        ),
    )
    if duplicate:
        model.set_duplicate("hosta", "hostb", probability=duplicate)
    if reorder:
        model.set_reorder("hosta", "hostb", probability=reorder, window=0.001)
    arrived: list = []
    deliver = arrived.append
    send = model.send
    handled = 0
    for start in range(0, messages, burst):
        for index in range(start, min(start + burst, messages)):
            send("hosta/sender", "hostb/sink", index, deliver)
        kernel.run()
        handled += len(arrived)
        arrived.clear()
    return PhaseCounts(
        phase=phase,
        attempted=messages,
        handled=handled,
        events_processed=kernel.events_processed,
        sent=model.messages_sent,
        delivered=model.messages_delivered,
        dropped=model.messages_dropped,
        duplicated=model.messages_duplicated,
        reordered=model.messages_reordered,
        delivery_events=len(model.events),
    )


def timer_phase(seed: int, timers: int, burst: int) -> PhaseCounts:
    """Schedule ``timers`` cancellable timers and cancel every second one.

    One more timer per burst is cancelled on top: the kernel compacts its
    heap only once *more* than half of it is cancelled, and the compaction
    path is part of what this phase is here to exercise.
    """
    kernel = SimKernel()
    delays = RandomStreams(seed).stream("storm-timers")
    fired: list = []
    handled = cancelled = 0
    for start in range(0, timers, burst):
        handles = [
            kernel.schedule(delays.random(), fired.append, index)
            for index in range(start, min(start + burst, timers))
        ]
        doomed = handles[::2] + handles[1:2]
        for handle in doomed:
            handle.cancel()
        cancelled += len(doomed)
        kernel.run()
        handled += len(fired)
        fired.clear()
    return PhaseCounts(
        phase="timers",
        attempted=timers,
        handled=handled,
        events_processed=kernel.events_processed,
        sent=timers,
        delivered=timers - cancelled,
        dropped=cancelled,
        compactions=kernel.compactions,
    )


def storm_phases(seed: int, operations: int, burst: int) -> list[tuple[str, Callable[[], PhaseCounts]]]:
    """The four phases as ``(name, thunk)``, so a traced run can span each."""
    phases: list[tuple[str, Callable[[], PhaseCounts]]] = [
        (
            phase,
            partial(
                message_phase, phase, seed + offset, loss, duplicate, reorder, operations, burst
            ),
        )
        for offset, (phase, loss, duplicate, reorder) in enumerate(LINK_PHASES)
    ]
    phases.append(("timers", partial(timer_phase, seed + len(LINK_PHASES), operations, burst)))
    return phases


class SimStorm(Workload):
    """The kernel and the network model alone, both event lanes in use."""

    name = "sim_storm"

    @property
    def operations(self) -> int:
        return self.sizes.storm_ops * (len(LINK_PHASES) + 1)

    def setup(self) -> None:
        warmup = max(self.sizes.storm_ops // 4, 1)
        for _, phase in storm_phases(self.seed, warmup, self.sizes.storm_burst):
            phase()

    def run(self) -> Any:
        return [
            phase()
            for _, phase in storm_phases(self.seed, self.sizes.storm_ops, self.sizes.storm_burst)
        ]

    def observe(self, payload: Any) -> Observation:
        return Observation(
            lines=[counts.line() for counts in payload],
            failed=sum(counts.unaccounted() for counts in payload),
            facts={
                "events_processed": float(sum(c.events_processed for c in payload)),
                "delivery_events": float(sum(c.delivery_events for c in payload)),
                "compactions": float(sum(c.compactions for c in payload)),
            },
        )


# ---------------------------------------------------------------------------
# The registry of workloads
# ---------------------------------------------------------------------------


def build_workload(name: str, seed: int, sizes: Sizes, workdir: Path) -> Workload:
    """Instantiate the workload called ``name`` (names as in ``BENCHMARK.json``)."""
    if name == "protocol_serial":
        return ProtocolWorkload(
            name, ExecutionConfig.serial, seed, sizes, workdir, own_reference=True
        )
    if name == "protocol_pool":
        return ProtocolWorkload(
            name, lambda **kw: ExecutionConfig.process_pool(workers=WORKERS, **kw),
            seed, sizes, workdir, parallel_layer="core.execution",
        )
    if name == "protocol_dist":
        return ProtocolWorkload(
            name, lambda **kw: ExecutionConfig.distributed(workers=WORKERS, **kw),
            seed, sizes, workdir, parallel_layer="dist.coordinator",
        )
    if name == "protocol_store":
        return ProtocolWorkload(
            name, ExecutionConfig.serial, seed, sizes, workdir, with_store=True
        )
    if name == "archive_reanalyze":
        return ArchiveReanalyze(seed, sizes, workdir)
    if name == "sim_storm":
        return SimStorm(seed, sizes, workdir)
    raise KeyError(name)
