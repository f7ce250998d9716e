"""The traced run: per-layer metrics, measured from outside the program.

One traced run per workload drives the same inputs *stepwise* from here —
calling each public function the fused ``run_and_analyze`` /
``load_analysis`` paths call, with a span around it — and adds a cProfile
pass over the first few experiments of each scenario that rolls self time
and call counts up by package.  The timed runs are never traced; the ratio
of the traced drive's wall time to theirs is ``trace.overhead_ratio``.

A layer metric that does not apply to a workload (``sim.*`` on
``archive_reanalyze``) is simply not computed and reads 0.  A metric whose
public function a later change deleted is listed under ``absent`` with the
name that was looked for.
"""

from __future__ import annotations

import cProfile
import importlib
import shutil
import statistics
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Iterable

from e2e_trace import Tracer, profile_rollup, share_of, span_ms
from e2e_workloads import (
    CAMPAIGN_MEASURE,
    WORKERS,
    ArchiveReanalyze,
    Observation,
    ProtocolWorkload,
    SimStorm,
    Workload,
    build_campaign,
    estimate_check,
    experiment_lines,
    storm_phases,
    store_bytes,
)

import repro
from repro import (
    AnalyzedExperiment,
    CampaignRunner,
    CampaignStore,
    ExecutionConfig,
    correct_injection_fraction,
    run_and_analyze,
)
from repro.analysis import build_global_timeline, estimate_all_bounds, verify_experiment
from repro.measures import TimelineView

PACKAGE_ROOT = str(Path(repro.__file__).resolve().parent)

#: Span names are ``<module path under repro>.<function>``; the layer is the prefix.
RUN_EXPERIMENT = "core.campaign.run_experiment_of"
ESTIMATE_BOUNDS = "analysis.clock_sync.estimate_all_bounds"
BUILD_TIMELINE = "analysis.global_timeline.build_global_timeline"
VERIFY = "analysis.verification.verify_experiment"
BUILD_VIEW = "measures.timeline_view.from_global_timeline"
APPLY_MEASURE = "measures.study.apply"
ESTIMATE = "measures.campaign.estimate"
ATTACH = "store.campaign_store.attach"
APPEND = "store.campaign_store.append"
FINGERPRINT = "store.campaign_store.content_fingerprint"
LOAD_RECORDS = "store.campaign_store.load_study_records"
ENCODE_BLOCK = "store.columnar.encode_block"
DECODE_BLOCK = "store.columnar.decode_block"
DRIVE = "benchmark.drive"

#: Mean span duration in ms, by metric name.
SPAN_MS = {
    "core.campaign.run_experiment_ms": RUN_EXPERIMENT,
    "analysis.clock_sync.estimate_all_bounds_ms": ESTIMATE_BOUNDS,
    "analysis.global_timeline.build_ms": BUILD_TIMELINE,
    "analysis.verification.verify_ms": VERIFY,
    "measures.timeline_view.build_ms": BUILD_VIEW,
    "measures.study.apply_ms": APPLY_MEASURE,
    "measures.campaign.estimate_ms": ESTIMATE,
    "store.campaign_store.attach_ms": ATTACH,
    "store.campaign_store.append_ms": APPEND,
    "store.campaign_store.content_fingerprint_ms": FINGERPRINT,
    "store.campaign_store.load_study_records_ms": LOAD_RECORDS,
    "store.columnar.encode_block_ms": ENCODE_BLOCK,
    "store.columnar.decode_block_ms": DECODE_BLOCK,
}

#: Where the store calls into its codec: ``(module, attribute, span, metric)``.
STORE_SEAMS = (
    ("repro.store.campaign_store", "encode_block", ENCODE_BLOCK, "store.columnar.encode_block_ms"),
    ("repro.store.columnar", "decode_block", DECODE_BLOCK, "store.columnar.decode_block_ms"),
)

#: Profile layers reported as ``<layer>.self_share``.
PROFILE_SHARES = (
    "sim.kernel", "sim.environment", "sim.network", "sim.process", "sim.host",
    "sim.rng", "sim.clock", "sim.topology",
    "core.runtime", "core.statemachine", "core.other", "apps", "builtins",
)

#: Exact call counts per profiled experiment: metric -> profile layer prefix.
PROFILE_CALLS = {
    "sim.calls_per_experiment": "sim.",
    "core.runtime.calls_per_experiment": "core.runtime",
    "apps.calls_per_experiment": "apps",
}


class Layers:
    """Per-layer metric values of one traced run, plus what was found absent."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.absent: dict[str, str] = {}

    def probe(self, module: str, attribute: str, *metrics: str) -> Callable[..., Any] | None:
        """``module.attribute`` if it still exists; else mark ``metrics`` absent."""
        try:
            found = getattr(importlib.import_module(module), attribute, None)
        except ImportError:
            found = None
        if found is None:
            for metric in metrics:
                self.absent[metric] = f"{module}.{attribute} not found"
        return found

    def store_seams(self) -> list[tuple[Any, str, str]]:
        """The codec seams that still exist, as targets for ``Tracer.patched``."""
        return [
            (importlib.import_module(module), attribute, span)
            for module, attribute, span, metric in STORE_SEAMS
            if self.probe(module, attribute, metric) is not None
        ]


# ---------------------------------------------------------------------------
# The stepwise drive
# ---------------------------------------------------------------------------


def analyze_stepwise(tracer: Tracer, result: Any, faults: Any) -> Any:
    """``repro.pipeline.analyze_experiment``, one span per call."""
    trace_id = f"{result.study}:{result.index}"
    with tracer.span(ESTIMATE_BOUNDS, trace_id):
        bounds = estimate_all_bounds(result.sync_messages, result.hosts, result.reference_host)
    with tracer.span(BUILD_TIMELINE, trace_id):
        timeline = build_global_timeline(result.local_timelines, bounds)
    with tracer.span(VERIFY, trace_id):
        verification = verify_experiment(timeline, faults)
    return AnalyzedExperiment(
        result=result, clock_bounds=bounds, global_timeline=timeline, verification=verification
    )


def measure_stepwise(
    tracer: Tracer, study: str, analyzed: list, measure: Any, lines: list[str]
) -> list[float | None]:
    """``StudyAnalysis.measure_values``, one span per call; appends digest lines."""
    views = []
    for experiment in analyzed:
        if experiment.accepted:
            with tracer.span(BUILD_VIEW, f"{study}:{experiment.result.index}"):
                views.append(TimelineView.from_global_timeline(experiment.global_timeline))
    with tracer.span(APPLY_MEASURE, study):
        values = measure.apply(views)
    lines += experiment_lines(analyzed, values)
    return values


def drive(
    tracer: Tracer,
    workload: ProtocolWorkload | ArchiveReanalyze,
    produce: Callable[[Any], Iterable[Any]],
    passes: int = 1,
) -> tuple[list[str], list[str], list]:
    """Analysis, study measures and campaign estimate over what ``produce(study)`` yields.

    Returns the last pass's digest lines and analysed experiments, and one
    ``estimate:`` check per pass.
    """
    checks: list[str] = []
    for _ in range(passes):
        lines: list[str] = []
        analyzed_all: list = []
        values: dict[str, list] = {}
        for study in workload.campaign.studies:
            faults = study.fault_specifications()
            analyzed = [analyze_stepwise(tracer, result, faults) for result in produce(study)]
            values[study.name] = measure_stepwise(
                tracer, study.name, analyzed, workload.measures[study.name], lines
            )
            analyzed_all.extend(analyzed)
        with tracer.span(ESTIMATE):
            estimate = CAMPAIGN_MEASURE.estimate(values)
        checks.append(estimate_check(estimate))
    return lines, checks, analyzed_all


# ---------------------------------------------------------------------------
# Metrics from spans, results and profiles
# ---------------------------------------------------------------------------


Totals = dict[str, tuple[int, float, float]]


def span_metrics(layers: Layers, totals: Totals, shares: tuple[str, ...]) -> float:
    """Mean span times and self-time shares; returns the drive's wall time."""
    wall = totals[DRIVE][1]
    for metric, span in SPAN_MS.items():
        if span in totals:
            layers.values[metric] = span_ms(totals, span)
    for layer in shares:
        layers.values[f"{layer}.share"] = share_of(totals, f"{layer}.", wall)
    layers.values["trace.remainder_share"] = share_of(totals, "benchmark.", wall)
    return wall


def result_metrics(layers: Layers, analyzed: list, simulated_wall: float | None) -> None:
    """Exact per-experiment counts.

    ``simulated_wall`` is the host time the runtime phase took, or ``None``
    when the results came out of an archive and no runtime phase ran.
    """
    experiments = len(analyzed)
    results = [experiment.result for experiment in analyzed]
    values = layers.values
    values["analysis.clock_sync.sync_messages_per_experiment"] = (
        sum(len(result.sync_messages) for result in results) / experiments
    )
    values["analysis.verification.accepted_share"] = (
        sum(experiment.accepted for experiment in analyzed) / experiments
    )
    values["analysis.verification.correct_injection_fraction"] = (
        correct_injection_fraction(analyzed) or 0.0
    )
    if simulated_wall is None:
        return
    simulated_s = sum(result.duration for result in results)
    values["sim.simulated_s_per_experiment"] = simulated_s / experiments
    values["sim.time_ratio"] = simulated_s / simulated_wall
    for metric, key in (
        ("core.runtime.notifications_routed_per_experiment", "notifications_routed"),
        ("core.runtime.application_messages_per_experiment", "application_messages"),
    ):
        values[metric] = sum(result.stats.get(key, 0) for result in results) / experiments
    values["core.timeline.records_per_experiment"] = (
        sum(
            len(timeline.records)
            for result in results
            for timeline in result.local_timelines.values()
        )
        / experiments
    )


def profile_metrics(layers: Layers, profile: cProfile.Profile, experiments: int) -> None:
    """Self-time shares and exact call counts by package from one cProfile pass."""
    rollup = profile_rollup(profile, PACKAGE_ROOT)
    total = sum(self_time for _, self_time in rollup.values())
    for layer in PROFILE_SHARES:
        layers.values[f"{layer}.self_share"] = rollup.get(layer, (0, 0.0))[1] / total
    if experiments:
        for metric, prefix in PROFILE_CALLS.items():
            calls = sum(count for layer, (count, _) in rollup.items() if layer.startswith(prefix))
            layers.values[metric] = calls / experiments


def parallel_metrics(
    layers: Layers, workload: ProtocolWorkload, wall_s: float, cpu_s: float
) -> None:
    """What a parallel backend adds to (or saves on) the serial reference run."""
    prefix = workload.parallel_layer
    operations = workload.operations
    serial_wall, serial_cpu = workload.reference_cost
    values = layers.values
    values[f"{prefix}.parallel_efficiency"] = serial_wall / (WORKERS * wall_s)
    values[f"{prefix}.overhead_cpu_ms_per_experiment"] = (cpu_s - serial_cpu) / operations * 1e3

    first: list[float] = []

    def progress(study: str, done: int, total: int) -> None:
        if not first:
            first.append(time.perf_counter())

    start = time.perf_counter()
    workload.observe(workload.campaign_run(workload.campaign, progress=progress))
    values[f"{prefix}.first_result_s"] = first[0] - start

    tiny = build_campaign(workload.seed, 1, "e2e-fixed-cost")

    def once(execution: ExecutionConfig) -> float:
        begin = time.perf_counter()
        run_and_analyze(tiny, execution=execution)
        return time.perf_counter() - begin

    repeats = range(workload.sizes.fixed_cost_repeats)
    parallel = statistics.median(once(workload.execution()) for _ in repeats)
    serial = statistics.median(once(ExecutionConfig.serial()) for _ in repeats)
    values[f"{prefix}.fixed_cost_s"] = parallel - serial


def wire_metrics(layers: Layers, workload: ProtocolWorkload, analyzed: list) -> None:
    """The JSONL record codec and the frame codec, on this campaign's own results."""
    results = [experiment.result for experiment in analyzed[: workload.sizes.codec_samples]]
    encode_record = layers.probe(
        "repro.store.format", "encode_record",
        "store.format.encode_record_ms", "store.format.bytes_per_experiment",
    )
    decode_record = layers.probe(
        "repro.store.format", "decode_record", "store.format.decode_record_ms"
    )
    encode_frame = layers.probe(
        "repro.dist.protocol", "encode_frame", "dist.protocol.encode_frame_us"
    )
    decode_frames = layers.probe(
        "repro.dist.protocol", "decode_frames", "dist.protocol.decode_frames_us"
    )
    plan_shards = layers.probe("repro.dist.shards", "plan_shards", "dist.shards.plan_shards_us")
    values = layers.values

    def mean_seconds(function: Callable[[Any], Any], items: list) -> tuple[float, list]:
        start = time.perf_counter()
        outputs = [function(item) for item in items]
        return (time.perf_counter() - start) / len(items), outputs

    records: list[str] = []
    if encode_record is not None:
        seconds, records = mean_seconds(encode_record, results)
        values["store.format.encode_record_ms"] = seconds * 1e3
        values["store.format.bytes_per_experiment"] = statistics.fmean(
            len(record.encode("utf-8")) for record in records
        )
    if decode_record is not None and records:
        values["store.format.decode_record_ms"] = mean_seconds(decode_record, records)[0] * 1e3
    frames: list[bytes] = []
    if encode_frame is not None and records:
        messages = [
            {"type": "completion", "study": 0, "index": index, "record": record}
            for index, record in enumerate(records)
        ]
        seconds, frames = mean_seconds(encode_frame, messages)
        values["dist.protocol.encode_frame_us"] = seconds * 1e6
    if decode_frames is not None and frames:
        seconds, _ = mean_seconds(lambda frame: list(decode_frames(frame)), frames)
        values["dist.protocol.decode_frames_us"] = seconds * 1e6
    if plan_shards is not None:
        tasks = [
            (study_index, index)
            for study_index, study in enumerate(workload.campaign.studies)
            for index in range(study.experiments)
        ]
        shard_size = workload.execution().resolved_chunk_size(len(tasks), WORKERS)
        seconds, _ = mean_seconds(lambda _: plan_shards(tasks, shard_size), list(range(20)))
        values["dist.shards.plan_shards_us"] = seconds * 1e6


# ---------------------------------------------------------------------------
# One traced run per kind of workload
# ---------------------------------------------------------------------------


def trace_protocol(
    layers: Layers, tracer: Tracer, workload: ProtocolWorkload, wall_s: float, cpu_s: float
) -> Observation:
    """The protocol campaign, stepwise; into a columnar store if the workload has one."""
    path = workload.fresh_directory() if workload.with_store else None
    store = None if path is None else CampaignStore(path, codec="columnar")

    def simulate(study: Any) -> Iterable[Any]:
        for index in range(study.experiments):
            trace_id = f"{study.name}:{index}"
            with tracer.span(RUN_EXPERIMENT, trace_id):
                result = CampaignRunner.run_experiment_of(study, index)
            if store is not None:
                with tracer.span(APPEND, trace_id):
                    store.append(result)
            yield result

    with tracer.patched(*layers.store_seams()), tracer.span(DRIVE):
        if store is not None:
            with tracer.span(ATTACH):
                store.attach(workload.campaign)
        lines, checks, analyzed = drive(tracer, workload, simulate)
        if store is not None:
            with tracer.span(FINGERPRINT):
                checks.append(f"store:{store.content_fingerprint()}")
            store.close()
    shares = ("core.campaign", "analysis", "measures") + (("store",) if store else ())
    totals = tracer.totals()
    traced_wall = span_metrics(layers, totals, shares)
    result_metrics(layers, analyzed, simulated_wall=totals[RUN_EXPERIMENT][1])
    values = layers.values
    if path is not None:
        values["store.columnar.bytes_per_experiment"] = store_bytes(path) / workload.operations
        shutil.rmtree(path)

    profile = cProfile.Profile()
    profiled = 0
    for study in workload.campaign.studies:
        for index in range(min(workload.sizes.profile_experiments, study.experiments)):
            profile.enable()
            CampaignRunner.run_experiment_of(study, index)
            profile.disable()
            profiled += 1
    profile_metrics(layers, profile, profiled)

    if workload.parallel_layer is None:
        values["trace.overhead_ratio"] = traced_wall / wall_s
    else:
        # The drive is serial whatever the backend, so its overhead is
        # judged against the serial reference run, not the parallel runs.
        values["trace.overhead_ratio"] = traced_wall / workload.reference_cost[0]
        parallel_metrics(layers, workload, wall_s, cpu_s)
    if workload.name == "protocol_serial":
        program = traced_wall * (1.0 - values["trace.remainder_share"])
        values["core.execution.serial_overhead_ms_per_experiment"] = (
            (wall_s - program) / workload.operations * 1e3
        )
    if workload.name == "protocol_dist":
        wire_metrics(layers, workload, analyzed)
    return Observation(lines=lines, checks=checks)


def trace_archive(
    layers: Layers, tracer: Tracer, workload: ArchiveReanalyze, wall_s: float
) -> Observation:
    """``CampaignStore.load_analysis`` + measures, stepwise, as many passes as a timed run."""

    def load(study: Any) -> Iterable[Any]:
        with tracer.span(LOAD_RECORDS, study.name):
            records = CampaignStore(workload.path).load_study_records(study.name)
        return [records[index] for index in sorted(records)]

    with tracer.patched(*layers.store_seams()), tracer.span(DRIVE):
        lines, checks, analyzed = drive(tracer, workload, load, workload.sizes.archive_passes)
    traced_wall = span_metrics(layers, tracer.totals(), ("analysis", "measures", "store"))
    result_metrics(layers, analyzed, simulated_wall=None)
    layers.values["store.columnar.bytes_per_experiment"] = store_bytes(workload.path) / len(
        analyzed
    )
    layers.values["trace.overhead_ratio"] = traced_wall / wall_s
    return Observation(lines=lines, checks=checks)


def trace_storm(
    layers: Layers, tracer: Tracer, workload: SimStorm, wall_s: float
) -> Observation:
    """The storm with a span per phase, then a quarter-size storm under cProfile."""
    sizes = workload.sizes
    with tracer.span(DRIVE):
        counts = []
        for name, phase in storm_phases(workload.seed, sizes.storm_ops, sizes.storm_burst):
            with tracer.span(f"sim.storm.{name}", name):
                counts.append(phase())
    totals = tracer.totals()
    traced_wall = totals[DRIVE][1]
    observation = workload.observe(counts)
    values = layers.values
    for phase in ("healthy", "lossy", "dup_reorder"):
        values[f"sim.network.{phase}_msgs_per_s"] = (
            sizes.storm_ops / totals[f"sim.storm.{phase}"][1]
        )
    values["sim.kernel.timer_events_per_s"] = (
        counts[-1].events_processed / totals["sim.storm.timers"][1]
    )
    values["sim.kernel.events_per_s"] = observation.facts["events_processed"] / traced_wall
    values["sim.network.delivery_events"] = observation.facts["delivery_events"]
    values["sim.kernel.compactions"] = observation.facts["compactions"]
    values["trace.remainder_share"] = share_of(totals, "benchmark.", traced_wall)
    values["trace.overhead_ratio"] = traced_wall / wall_s

    profile = cProfile.Profile()
    profile.enable()
    for _, phase in storm_phases(workload.seed, max(sizes.storm_ops // 4, 1), sizes.storm_burst):
        phase()
    profile.disable()
    profile_metrics(layers, profile, experiments=0)
    return observation


def trace_workload(
    workload: Workload, tracer: Tracer, wall_s: float, cpu_s: float, warnings_seen: int
) -> tuple[Layers, Observation]:
    """The traced pass of ``workload``.

    ``wall_s`` and ``cpu_s`` are the untraced runs' medians and
    ``warnings_seen`` how many warnings those runs raised.
    """
    layers = Layers()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(workload, ProtocolWorkload):
            observation = trace_protocol(layers, tracer, workload, wall_s, cpu_s)
        elif isinstance(workload, ArchiveReanalyze):
            observation = trace_archive(layers, tracer, workload, wall_s)
        else:
            observation = trace_storm(layers, tracer, workload, wall_s)
    if workload.name == "protocol_dist":
        layers.values["dist.warnings"] = float(warnings_seen + len(caught))
    return layers, observation
