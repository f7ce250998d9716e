"""Synchronization-message mini-phases (Sections 2.3 and 2.5).

Before and after every experiment, the campaign runner exchanges a burst of
small timestamped messages between the reference machine and every other
machine.  Each message contributes a half-plane constraint to the offline
clock-synchronization algorithm, so bidirectional traffic both *before and
after* the experiment is what makes the drift (``beta``) bounds tight.

The messages are kept outside the experiment itself so they do not intrude
on the application (the paper's ``getstamps`` tool runs separately from the
system under study).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.clock_sync import SyncTable
from repro.sim.environment import Environment
from repro.sim.host import Host


@dataclass(frozen=True)
class SyncPhaseConfig:
    """Parameters of one synchronization-message mini-phase.

    Attributes
    ----------
    messages_per_phase:
        Number of message *pairs* (one in each direction) exchanged between
        the reference host and every other host.
    interval:
        Spacing between successive message pairs, in seconds.
    dedicated_receiver:
        When true (the default), the receiving timestamp process is assumed
        to be blocked waiting for the message and wakes up after only a
        context switch, as the paper's ``getstamps`` tool does; when false,
        the full OS scheduling delay of a busy host is charged, which
        widens the resulting clock bounds considerably.
    """

    messages_per_phase: int = 25
    interval: float = 0.001
    dedicated_receiver: bool = True


def run_sync_phase(
    environment: Environment,
    reference: str,
    hosts: tuple[str, ...],
    config: SyncPhaseConfig | None = None,
    table: SyncTable | None = None,
) -> SyncTable:
    """Exchange synchronization messages and return the table of timestamps.

    Each reception appends one row to ``table`` (a fresh one by default; the
    closing mini-phase of an experiment passes the opening one's, so the
    experiment ends with a single table).  The exchange is simulated
    directly on the network/host models (no Loki processes are involved):
    each message records the sender's clock at transmission and the
    receiver's clock at reception, after the sampled LAN delay plus the
    receiver's OS scheduling delay — exactly the quantities a real
    ``getstamps`` run would log.
    """
    config = config or SyncPhaseConfig()
    records = SyncTable() if table is None else table
    kernel = environment.kernel
    hosts_by_name = environment.hosts
    lan = environment.lan_profile
    rng = environment.streams.stream("sync-phase")

    # Nothing cancels these events, so they are posted (no handles) at the
    # absolute times ``schedule(delay)`` would compute: ``now + delay``.
    def exchange(sender: str, receiver: str) -> None:
        now = kernel.now
        send_clock = hosts_by_name[sender].clock.read(now)
        receiver_host = hosts_by_name[receiver]
        if config.dedicated_receiver:
            wakeup = receiver_host.scheduler.context_switch_cost
        else:
            wakeup = receiver_host.scheduling_delay()
        delay = lan.sample_delay(rng) + wakeup
        kernel.post_at(now + delay, record_reception, sender, receiver_host, send_clock)

    def record_reception(sender: str, receiver: Host, send_clock: float) -> None:
        receive_clock = receiver.clock.read(kernel.now)
        records.append(sender, receiver.name, send_clock, receive_clock)

    start = kernel.now
    others = [host for host in hosts if host != reference]
    for round_index in range(config.messages_per_phase):
        when = round_index * config.interval
        for host in others:
            kernel.post_at(start + when, exchange, reference, host)
            kernel.post_at(start + (when + config.interval / 2.0), exchange, host, reference)

    phase_end = start + config.messages_per_phase * config.interval + 0.010
    kernel.run(until=phase_end)
    return records
