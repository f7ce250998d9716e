"""NETWORK: message-delivery throughput of the topology-aware substrate.

The topology refactor put a link-state lookup on every message send, so
this bench times the substrate's raw delivery throughput: a sender/sink
pair exchanging a fixed burst of messages over
(a) the default healthy LAN link, (b) a lossy link, and (c) a link with
duplication and reordering enabled — the full per-message pipeline
including the FIFO floor and the structured delivery-event log.  The
pytest-benchmark fixture times the healthy-link case (the hot path every
experiment pays); the loss/duplicate/reorder cases are printed for
context.
"""

from __future__ import annotations

import time

from conftest import print_table
from repro.sim.kernel import SimKernel
from repro.sim.network import LinkProfile, NetworkModel
from repro.sim.rng import RandomStreams

MESSAGES = 20_000


def run_burst(
    loss: float = 0.0, duplicate: float = 0.0, reorder: float = 0.0
) -> tuple[int, int]:
    """Send one burst through a fresh model; return (delivered, events)."""
    kernel = SimKernel()
    model = NetworkModel(
        kernel,
        RandomStreams(11),
        default_profile=LinkProfile(
            base_delay=150e-6, jitter_mean=30e-6, loss_probability=loss
        ),
    )
    if duplicate:
        model.set_duplicate("hosta", "hostb", probability=duplicate)
    if reorder:
        model.set_reorder("hosta", "hostb", probability=reorder, window=0.001)
    delivered = []
    for index in range(MESSAGES):
        model.send(
            "hosta/sender",
            "hostb/sink",
            index,
            deliver=lambda message: delivered.append(message.payload),
        )
    kernel.run()
    assert model.messages_sent == MESSAGES
    assert len(delivered) == model.messages_delivered
    return model.messages_delivered, len(model.events)


def test_bench_message_delivery_throughput(benchmark):
    """Time the healthy hot path; print throughput across link conditions."""
    rows = []
    for label, kwargs in (
        ("healthy LAN", {}),
        ("10% loss", {"loss": 0.10}),
        ("5% duplicate + 5% reorder", {"duplicate": 0.05, "reorder": 0.05}),
    ):
        start = time.perf_counter()
        delivered, events = run_burst(**kwargs)
        elapsed = time.perf_counter() - start
        rows.append(
            [
                label,
                str(delivered),
                str(events),
                f"{MESSAGES / elapsed / 1e3:.0f}k msg/s",
            ]
        )

    delivered, events = benchmark(run_burst)
    assert delivered == MESSAGES
    assert events == 0  # the healthy path records no delivery anomalies

    print_table(
        f"Message delivery — {MESSAGES} messages per burst",
        ["link condition", "delivered", "delivery events", "throughput"],
        rows,
    )
