"""Synchronization-message mini-phases (Sections 2.3 and 2.5).

Before and after every experiment, the campaign runner exchanges a burst of
small timestamped messages between the reference machine and every other
machine.  Each message contributes a half-plane constraint to the offline
clock-synchronization algorithm, so bidirectional traffic both *before and
after* the experiment is what makes the drift (``beta``) bounds tight.

The messages are kept outside the experiment itself so they do not intrude
on the application (the paper's ``getstamps`` tool runs separately from the
system under study).  Nothing else in the simulator touches them either,
so a phase's table is computed in closed form rather than played out as
kernel events: the exchanges run in a stable sort of their send times (the
kernel's ``(time, seq)`` order), each draws one LAN delay from the
``"sync-phase"`` stream in that order plus the receiver's context switch
(the receiving ``getstamps`` process is blocked waiting for it), and rows
follow in (arrival, exchange) order.  A message arriving after the phase
is posted to the kernel as its row's append, as its reception would be.
One order differs from a played-out exchange: a previous phase's message
still in flight when a phase starts (a LAN delay beyond the 10 ms tail and
an experiment shorter than it) is appended after this phase's rows rather
than among them — the same rows, so the same clock bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from repro.analysis.clock_sync import SyncTable
from repro.sim.environment import Environment


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
    """

    messages_per_phase: int = 25
    interval: float = 0.001


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
    experiment ends with a single table).  No Loki process is involved:
    each message records the sender's clock at transmission and the
    receiver's clock at reception, after the sampled LAN delay plus the
    receiver's context switch — exactly the quantities a real
    ``getstamps`` run would log.  The kernel then runs to the end of the
    phase, so application events still pending after an experiment fire
    as they always did.
    """
    config = config or SyncPhaseConfig()
    records = SyncTable() if table is None else table
    kernel = environment.kernel
    start = kernel.now
    interval = config.interval
    phase_end = start + config.messages_per_phase * interval + 0.010
    # Host codes local to this phase: 0 is the reference.
    names = [reference] + [host for host in hosts if host != reference]
    machines = [environment.hosts[name] for name in names]
    exchanges: list[tuple[float, int, int]] = []
    for round_index in range(config.messages_per_phase):
        when = round_index * interval
        for code in range(1, len(names)):
            exchanges.append((start + when, 0, code))
            exchanges.append((start + (when + interval / 2.0), code, 0))
    if exchanges:
        exchanges.sort(key=itemgetter(0))
        sample_delay = environment.lan_profile.sample_delay
        rng = environment.streams.stream("sync-phase")
        wakeup = [machine.scheduler.context_switch_cost for machine in machines]
        sent, sender, receiver = zip(*exchanges)
        delay = [sample_delay(rng) + wakeup[code] for code in receiver]
        sent, sender, receiver = map(np.array, (sent, sender, receiver))
        arrival = sent + delay
        rows = np.argsort(arrival, kind="stable")
        sent, sender, receiver, arrival = sent[rows], sender[rows], receiver[rows], arrival[rows]
        send_clock, receive_clock = np.empty_like(sent), np.empty_like(arrival)
        for code, machine in enumerate(machines):
            mask = sender == code
            send_clock[mask] = machine.clock.read(sent[mask])
            mask = receiver == code
            receive_clock[mask] = machine.clock.read(arrival[mask])
        landed = int(np.searchsorted(arrival, phase_end, side="right"))
        # Append the landed rows at once, hosts joining the pool in
        # first-use order (sender before receiver) as ``append`` has them.
        pool = records.hosts
        used = np.column_stack((sender[:landed], receiver[:landed])).ravel().tolist()
        pool += [name for name in dict.fromkeys(map(names.__getitem__, used)) if name not in pool]
        codes = np.array([pool.index(name) if name in pool else -1 for name in names])
        records.sender.extend(codes[sender[:landed]].tolist())
        records.receiver.extend(codes[receiver[:landed]].tolist())
        records.send_time.extend(send_clock[:landed].tolist())
        records.receive_time.extend(receive_clock[:landed].tolist())
        for row in range(landed, len(rows)):
            late = names[sender[row]], names[receiver[row]], send_clock[row], receive_clock[row]
            kernel.post_at(float(arrival[row]), records.append, *late)
    kernel.run(until=phase_end)
    return records
