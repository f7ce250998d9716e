"""Tests of the fault-tolerant parallel execution backend (repro.dist).

Four layers:

* the frame codec kept for the end-to-end benchmark's probes;
* the shard planner's partition property — every pending experiment in
  exactly one shard — for arbitrary campaign shapes (seeded table always,
  hypothesis when installed);
* the supervision primitives (retry policy, heartbeat monitor) and the
  coordinator's whole loop, driven by a ``FakeClock`` in zero real time;
* the backend end to end: bit-identical to serial, streaming into a
  campaign store, resuming a killed campaign.  (Fault *injection* —
  SIGKILL, dropped heartbeats, duplicated completions, failing forks —
  lives in ``tests/chaos/``.)
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.apps.toggle import build_toggle_study
from repro.core.campaign import CampaignConfig
from repro.core.execution import (
    DISTRIBUTED,
    ExecutionConfig,
    available_backends,
    build_executor,
)
from repro.dist import (
    CampaignCoordinator,
    FakeClock,
    HeartbeatMonitor,
    ParallelExecutor,
    RetryPolicy,
    ShardSpec,
    decode_frames,
    encode_frame,
    plan_shards,
)
from repro.dist.supervision import supervision_stream
from repro.dist.worker import COMPLETION, SHARD_DONE
from repro.errors import ProtocolError, RuntimeConfigurationError
from repro.measures import (
    MeasureStep,
    SimpleSamplingMeasure,
    StateTuple,
    StudyMeasure,
    TotalDuration,
    estimate_campaign_measure,
)
from repro.pipeline import run_and_analyze
from repro.sim.rng import RandomStreams
from repro.store import CampaignStore

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ModuleNotFoundError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

needs_fork = pytest.mark.skipif(
    DISTRIBUTED not in available_backends(),
    reason="distributed backend needs the fork start method",
)


def build_campaign(experiments: int = 4) -> CampaignConfig:
    study_a = build_toggle_study(
        "alpha", dwell_time=0.02, timeslice=0.002, cycles=3,
        experiments=experiments, seed=11,
    )
    study_b = build_toggle_study(
        "beta", dwell_time=0.03, timeslice=0.002, cycles=3,
        experiments=experiments, seed=22,
    )
    return CampaignConfig(name="dist-test", studies=[study_a, study_b])


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
# Frame codec
# ---------------------------------------------------------------------------


class TestProtocolFraming:
    def test_frame_roundtrip(self):
        messages = [
            {"type": "hello", "worker": 0},
            {"type": "completion", "worker": 1, "study": 0, "index": 7, "record": "x" * 100},
            {"type": "shard-done", "worker": 1, "shard": 3},
        ]
        data = b"".join(encode_frame(message) for message in messages)
        assert list(decode_frames(data)) == messages

    def test_truncated_frame_raises(self):
        data = encode_frame({"type": "hello", "worker": 0})
        with pytest.raises(ProtocolError, match="truncated"):
            list(decode_frames(data[:-3]))

    def test_untyped_message_rejected(self):
        import json
        import struct

        payload = json.dumps(["not", "a", "message"]).encode()
        data = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError, match="typed message"):
            list(decode_frames(data))


# ---------------------------------------------------------------------------
# Shard planning: the partition property
# ---------------------------------------------------------------------------


def check_partition(tasks: list[tuple[int, int]], shard_size: int) -> None:
    """Every task in exactly one shard; no shard oversized or mixed."""
    shards = plan_shards(tasks, shard_size)
    covered: list[tuple[int, int]] = []
    for shard in shards:
        assert 1 <= shard.size <= shard_size
        covered.extend(shard.tasks())
    assert sorted(covered) == sorted(tasks)
    assert len(covered) == len(set(covered))
    assert [shard.shard_id for shard in shards] == list(range(len(shards)))


class TestShardPlanner:
    #: (study sizes, shard size) shapes covering the interesting regimes.
    SEEDED_SHAPES = (
        ((1,), 1),
        ((7,), 3),
        ((8,), 8),
        ((5, 5), 2),
        ((3, 1, 9), 4),
        ((100,), 7),
        ((2, 2, 2, 2), 1),
    )

    @pytest.mark.parametrize("sizes,shard_size", SEEDED_SHAPES)
    def test_partition_property_seeded(self, sizes, shard_size):
        tasks = [
            (study_index, experiment_index)
            for study_index, size in enumerate(sizes)
            for experiment_index in range(size)
        ]
        check_partition(tasks, shard_size)

    def test_partition_of_gappy_resume_sets(self):
        # Resume skips cached experiments, so the pending set has holes;
        # shards must never span a hole (they are seed-range slices).
        tasks = [(0, i) for i in (0, 1, 2, 5, 6, 9)] + [(1, i) for i in (4, 5)]
        check_partition(tasks, 2)
        shards = plan_shards(tasks, 10)
        spans = [(s.study_index, s.start, s.stop) for s in shards]
        assert spans == [(0, 0, 3), (0, 5, 7), (0, 9, 10), (1, 4, 6)]

    def test_task_order_is_irrelevant(self):
        tasks = [(0, i) for i in range(9)] + [(1, i) for i in range(4)]
        shuffled = list(reversed(tasks))
        assert plan_shards(tasks, 4) == plan_shards(shuffled, 4)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            plan_shards([(0, 1), (0, 1)], 2)

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ShardSpec(shard_id=0, study_index=0, start=3, stop=3)

    def test_nonpositive_shard_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            plan_shards([(0, 0)], 0)

    if HAVE_HYPOTHESIS:

        @given(
            sizes=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=5),
            shard_size=st.integers(min_value=1, max_value=50),
            drop_seed=st.integers(min_value=0, max_value=2**31),
        )
        @settings(max_examples=60, deadline=None)
        def test_partition_property_hypothesis(self, sizes, shard_size, drop_seed):
            # Arbitrary study sizes with pseudo-random holes (a resume set).
            tasks = []
            for study_index, size in enumerate(sizes):
                for experiment_index in range(size):
                    gate = RandomStreams(drop_seed).derive(
                        f"drop:{study_index}:{experiment_index}"
                    )
                    if gate % 4:  # keep ~75%
                        tasks.append((study_index, experiment_index))
            if tasks:
                check_partition(tasks, shard_size)
            else:
                assert plan_shards(tasks, shard_size) == []


# ---------------------------------------------------------------------------
# Supervision primitives (no real time: FakeClock throughout)
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_exhaustion_boundary(self):
        policy = RetryPolicy(max_retries=2)
        assert not policy.exhausted(1)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)
        assert RetryPolicy(max_retries=0).exhausted(1)

    def test_delay_grows_exponentially_within_jitter(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=1.0, jitter=0.5)
        rng = RandomStreams(0).stream("test-jitter")
        for attempt, base in ((1, 0.1), (2, 0.2), (3, 0.4), (4, 0.8), (5, 1.0), (6, 1.0)):
            delay = policy.delay(attempt, rng)
            assert base <= delay <= base * 1.5

    def test_delay_attempts_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay(0, RandomStreams(0).stream("x"))

    def test_from_execution_carries_the_knobs(self):
        config = ExecutionConfig(max_retries=5, retry_backoff_base_s=0.5)
        policy = RetryPolicy.from_execution(config)
        assert policy.max_retries == 5
        assert policy.backoff_base_s == 0.5

    def test_supervision_stream_is_reproducible_and_namespaced(self):
        campaign = build_campaign(experiments=1)
        first = supervision_stream(campaign).random()
        again = supervision_stream(campaign).random()
        assert first == again  # pure function of the configuration
        # ...and disjoint from the experiment seed derivation.
        experiment_rng = RandomStreams(campaign.studies[0].seed)
        assert supervision_stream(campaign).random() != experiment_rng.stream(
            "dist-supervision"
        ).random()


class TestHeartbeatMonitor:
    def test_expiry_is_clock_driven(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor(timeout_s=1.0, clock=clock)
        monitor.beat(0)
        monitor.beat(1)
        assert monitor.expired() == []
        clock.advance(0.9)
        monitor.beat(1)  # worker 1 keeps beating
        clock.advance(0.2)  # worker 0 now silent for 1.1s
        assert monitor.expired() == [0]
        assert monitor.silence(0) == pytest.approx(1.1)

    def test_forget_stops_watching(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor(timeout_s=0.5, clock=clock)
        monitor.beat(3)
        monitor.forget(3)
        clock.advance(10.0)
        assert monitor.expired() == []
        assert monitor.watched() == ()

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            HeartbeatMonitor(timeout_s=0, clock=FakeClock())


# ---------------------------------------------------------------------------
# ExecutionConfig knobs
# ---------------------------------------------------------------------------


class TestExecutionConfigKnobs:
    def test_distributed_backend_is_registered(self):
        if "fork" in __import__("multiprocessing").get_all_start_methods():
            assert DISTRIBUTED in available_backends()

    def test_distributed_constructor(self):
        config = ExecutionConfig.distributed(workers=4, chunk_size=3)
        assert config.backend == DISTRIBUTED
        assert config.workers == 4
        assert type(build_executor(config)) is ParallelExecutor

    def test_unknown_backend_still_rejected(self):
        with pytest.raises(RuntimeConfigurationError, match="unknown execution backend"):
            ExecutionConfig(backend="cluster")

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"max_retries": -1}, "max_retries"),
            ({"retry_backoff_base_s": 0.0}, "backoff"),
            ({"heartbeat_interval_s": 0.0}, "interval"),
            ({"heartbeat_timeout_s": 0.1, "heartbeat_interval_s": 0.5}, "exceed"),
        ],
    )
    def test_retry_knob_validation(self, kwargs, match):
        with pytest.raises(RuntimeConfigurationError, match=match):
            ExecutionConfig(**kwargs)

    def test_knobs_participate_in_config_identity(self):
        assert ExecutionConfig(max_retries=1) != ExecutionConfig(max_retries=2)


# ---------------------------------------------------------------------------
# The backend end to end
# ---------------------------------------------------------------------------


@needs_fork
class TestDistributedEquivalence:
    def test_bit_identical_to_serial(self):
        campaign = build_campaign(experiments=4)
        serial = run_and_analyze(campaign, ExecutionConfig.serial())
        dist = run_and_analyze(
            campaign, ExecutionConfig.distributed(workers=3, chunk_size=2)
        )
        assert campaign_measures_of(serial) == campaign_measures_of(dist)

    def test_single_worker_single_shard(self):
        campaign = build_campaign(experiments=2)
        serial = run_and_analyze(campaign, ExecutionConfig.serial())
        dist = run_and_analyze(
            campaign, ExecutionConfig.distributed(workers=1, chunk_size=50)
        )
        assert campaign_measures_of(serial) == campaign_measures_of(dist)

    def test_store_streaming_matches_serial_store(self, tmp_path):
        campaign = build_campaign(experiments=3)
        serial = run_and_analyze(
            campaign, ExecutionConfig.serial(), store=CampaignStore(tmp_path / "s")
        )
        dist = run_and_analyze(
            campaign,
            ExecutionConfig.distributed(workers=2, chunk_size=2),
            store=CampaignStore(tmp_path / "d"),
        )
        assert campaign_measures_of(serial) == campaign_measures_of(dist)
        serial_store = CampaignStore(tmp_path / "s")
        dist_store = CampaignStore(tmp_path / "d")
        assert (
            serial_store.content_fingerprint() == dist_store.content_fingerprint()
        )
        reports = dist_store.verify()
        assert all(report.valid == 3 and report.corrupt == 0 for report in reports.values())

    def test_killed_campaign_heals_from_store(self, tmp_path):
        campaign = build_campaign(experiments=4)
        baseline = campaign_measures_of(
            run_and_analyze(
                campaign, ExecutionConfig.serial(), store=CampaignStore(tmp_path / "s")
            )
        )

        class KilledMidway(RuntimeError):
            pass

        completed = 0

        def die_after_three(name: str, done: int, total: int) -> None:
            nonlocal completed
            completed += 1
            if completed >= 3:
                raise KilledMidway()

        with pytest.raises(KilledMidway):
            run_and_analyze(
                campaign,
                ExecutionConfig.distributed(
                    workers=2, chunk_size=2, progress=die_after_three
                ),
                store=CampaignStore(tmp_path / "d"),
            )
        # The first three completions reached the store before the kill...
        persisted = sum(
            report.valid for report in CampaignStore(tmp_path / "d").verify().values()
        )
        assert persisted >= 3
        # ...and a rerun with the same store heals to the serial baseline.
        resumed = run_and_analyze(
            campaign,
            ExecutionConfig.distributed(workers=2, chunk_size=2),
            store=CampaignStore(tmp_path / "d"),
        )
        assert campaign_measures_of(resumed) == baseline
        assert (
            CampaignStore(tmp_path / "d").content_fingerprint()
            == CampaignStore(tmp_path / "s").content_fingerprint()
        )

    def test_progress_streams_completions(self):
        campaign = build_campaign(experiments=3)
        seen: list[tuple[str, int, int]] = []
        run_and_analyze(
            campaign,
            ExecutionConfig.distributed(
                workers=2, chunk_size=1, progress=lambda *event: seen.append(event)
            ),
        )
        assert len(seen) == 6
        assert {name for name, _, _ in seen} == {"alpha", "beta"}
        for name, done, total in seen:
            assert 1 <= done <= total == 3


# ---------------------------------------------------------------------------
# The coordinator's loop on a FakeClock: no process, no real waiting
# ---------------------------------------------------------------------------


class StubProcess:
    """What the coordinator needs of a process, for a worker that is a script."""

    def __init__(self) -> None:
        self.killed = self.joined = False

    def kill(self) -> None:
        self.killed = True

    def join(self, timeout: float | None = None) -> None:
        self.joined = True

    def is_alive(self) -> bool:
        return False


class ScriptedFleet(CampaignCoordinator):
    """Workers are pipes whose far ends this class plays on the clock's idle hook.

    Worker 0 hangs silently on whatever it is leased; every later worker
    answers its lease at once.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.far_ends: dict[int, multiprocessing.connection.Connection] = {}
        self.clock.on_idle = self.play_workers

    def _fork(self, options):
        ours, self.far_ends[options.worker_id] = multiprocessing.Pipe(duplex=True)
        return StubProcess(), ours

    def play_workers(self) -> None:
        for worker_id, far_end in self.far_ends.items():
            if worker_id > 0 and self.workers[worker_id].alive and far_end.poll():
                shard = far_end.recv()
                for study_index, index in shard.tasks():
                    far_end.send_bytes(
                        pickle.dumps((COMPLETION, study_index, index, f"result-{index}"))
                    )
                far_end.send_bytes(pickle.dumps((SHARD_DONE, shard.shard_id)))


class IdleHookClock(FakeClock):
    on_idle = staticmethod(lambda: None)

    def wait_readable(self, connections, seconds):
        self.on_idle()
        return super().wait_readable(connections, seconds)


class TestCoordinatorOnFakeClock:
    def test_silent_worker_expires_backs_off_and_is_replaced(self):
        campaign = build_campaign(experiments=2)
        config = ExecutionConfig.process_pool(
            workers=1, heartbeat_interval_s=0.5, heartbeat_timeout_s=2.0,
            retry_backoff_base_s=0.05,
        )
        clock = IdleHookClock()
        coordinator = ScriptedFleet(
            campaign, plan_shards([(0, 0), (0, 1)], 2),
            task=None, workers=1, config=config, clock=clock,
        )
        with pytest.warns(UserWarning, match=r"worker 0 died \(no heartbeat for over 2s\)"):
            delivered = list(coordinator.run())
        assert delivered == [(0, 0, "result-0"), (0, 1, "result-1")]
        assert coordinator.stats == {
            "completions": 2, "duplicates_dropped": 0, "reassignments": 1, "workers_lost": 1,
        }
        # Five silent heartbeat ticks cross the 2 s timeout; the next wait is
        # cut short to the lost shard's jittered backoff, not a whole tick.
        assert clock.sleeps[:5] == [0.5] * 5
        assert len(clock.sleeps) == 6 and 0.05 <= clock.sleeps[5] <= 0.075
        hung, replacement = (coordinator.workers[i].process for i in (0, 1))
        assert hung.killed and hung.joined and replacement.joined
