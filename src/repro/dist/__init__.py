"""Fault-tolerant parallel campaign orchestration.

This package is the parallel execution backend of the campaign engine
(:mod:`repro.core.execution`), selected by either of its two names,
``"process-pool"`` and ``"distributed"``:

* :mod:`repro.dist.coordinator` — the supervision loop (leases,
  heartbeats, retry with backoff, dead-worker replacement, idempotent
  completions) and :class:`ParallelExecutor`, its adapter to the engine;
  the design is described there;
* :mod:`repro.dist.worker` — the forked worker process and the messages
  it sends over its inherited pipe;
* :mod:`repro.dist.shards` — contiguous seed-range shards, the unit of
  lease and retry;
* :mod:`repro.dist.supervision` — the injectable clock (the only module
  that touches real time), the retry policy, the heartbeat monitor;
* :mod:`repro.dist.protocol` — a JSON frame codec the engine does not
  use, kept for the end-to-end benchmark's probes.

Select the backend through the ordinary engine configuration,
``ExecutionConfig.process_pool(workers=4)``; ``run_and_analyze(...,
store=...)`` then streams every completed experiment into the campaign
store exactly as the serial backend does, so a killed-and-restarted
campaign heals from the store.
"""

from __future__ import annotations

from repro.dist.coordinator import CampaignCoordinator, ParallelExecutor
from repro.dist.protocol import MAX_FRAME_BYTES, decode_frames, encode_frame
from repro.dist.shards import ShardSpec, plan_shards
from repro.dist.supervision import (
    FakeClock,
    HeartbeatMonitor,
    RetryPolicy,
    SupervisionClock,
    SystemClock,
)
from repro.dist.worker import WorkerOptions

__all__ = [
    "CampaignCoordinator",
    "FakeClock",
    "HeartbeatMonitor",
    "MAX_FRAME_BYTES",
    "ParallelExecutor",
    "RetryPolicy",
    "ShardSpec",
    "SupervisionClock",
    "SystemClock",
    "WorkerOptions",
    "decode_frames",
    "encode_frame",
    "plan_shards",
]
