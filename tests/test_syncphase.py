"""The closed-form sync phase equals the exchange played out on the kernel.

``run_sync_phase`` computes a phase's table without the event loop.  The
oracle below is that exchange played out event by event — every exchange
posted at its send time, drawing its delay when it runs, its reception
posted at the arrival and appending the row when it fires — and the two
must agree bit for bit on every row, the host pool, the ``"sync-phase"``
stream afterwards and the kernel clock.  The cases cover the corners a
closed form could get wrong: equal send times (ties broken by posting
order), granular clocks, jitter-free and long LAN delays whose rows land
after the phase (recorded during the experiment when sent before it,
never when sent after), and phases with no messages at all.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.clock_sync import SyncTable
from repro.core.runtime.syncphase import SyncPhaseConfig, run_sync_phase
from repro.sim.clock import ClockParameters
from repro.sim.environment import Environment
from repro.sim.host import SchedulerConfig
from repro.sim.network import LinkProfile


def played_out_sync_phase(environment, reference, hosts, config, table=None) -> SyncTable:
    """The sync phase as kernel events (the oracle)."""
    records = SyncTable() if table is None else table
    kernel = environment.kernel
    lan = environment.lan_profile
    rng = environment.streams.stream("sync-phase")

    def exchange(sender, receiver):
        now = kernel.now
        send_clock = environment.hosts[sender].clock.read(now)
        receiver_host = environment.hosts[receiver]
        delay = lan.sample_delay(rng) + receiver_host.scheduler.context_switch_cost
        kernel.post_at(now + delay, record_reception, sender, receiver_host, send_clock)

    def record_reception(sender, receiver, send_clock):
        records.append(sender, receiver.name, send_clock, receiver.clock.read(kernel.now))

    start = kernel.now
    for round_index in range(config.messages_per_phase):
        when = round_index * config.interval
        for host in hosts:
            if host != reference:
                kernel.post_at(start + when, exchange, reference, host)
                kernel.post_at(
                    start + (when + config.interval / 2.0), exchange, host, reference
                )
    kernel.run(until=start + config.messages_per_phase * config.interval + 0.010)
    return records


def build_environment(
    seed: int,
    lan: LinkProfile,
    host_count: int,
    granularity: float,
    switch_step: float | None = None,
):
    """Hosts ``h0``...; with ``switch_step``, host ``i`` wakes after ``i * switch_step``."""
    rng = random.Random(seed)
    environment = Environment(seed=seed, lan_profile=lan)
    names = [f"h{index}" for index in range(host_count)]
    for index, name in enumerate(names):
        environment.add_host(
            name,
            clock=ClockParameters(
                offset=rng.uniform(-0.01, 0.01),
                rate=1.0 + rng.uniform(-100.0, 100.0) * 1e-6,
                granularity=granularity,
            ),
            scheduler=None
            if switch_step is None
            else SchedulerConfig(context_switch_cost=index * switch_step),
        )
    return environment, names


def experiment_stand_in(environment) -> None:
    """Some application traffic between the two phases."""
    kernel = environment.kernel
    for offset in (0.001, 0.004, 0.0125):
        kernel.schedule(offset, lambda: None)
    kernel.run()


def run_both_phases(phase, seed, lan, host_count, granularity, config, switch_step):
    environment, names = build_environment(seed, lan, host_count, granularity, switch_step)
    reference = names[-1]
    table = phase(environment, reference, tuple(names), config)
    experiment_stand_in(environment)
    phase(environment, reference, tuple(names), config, table)
    stream = environment.streams.stream("sync-phase").getstate()
    return table, environment.kernel.now, stream


#: Binary-exact spacing, so arrivals can tie exactly.
TICK = 2.0**-10

CASES = [
    (LinkProfile(), 3, 0.0, SyncPhaseConfig(), None),
    (LinkProfile(), 2, 1e-6, SyncPhaseConfig(messages_per_phase=7, interval=0.002), None),
    (LinkProfile(base_delay=100e-6, jitter_mean=0.0), 4, 0.0, SyncPhaseConfig(), None),
    # Long delays: the last rounds' messages arrive after the phase ends.
    (LinkProfile(base_delay=0.009, jitter_mean=0.002), 3, 1e-4, SyncPhaseConfig(), None),
    (LinkProfile(base_delay=0.012, jitter_mean=0.0), 3, 0.0, SyncPhaseConfig(), None),
    # The last message of the opening phase arrives exactly at its end.
    (
        LinkProfile(base_delay=0.010 + TICK / 2, jitter_mean=0.0),
        2,
        0.0,
        SyncPhaseConfig(interval=TICK),
        0.0,
    ),
    # Hosts that wake one tick apart: a message to host i in round r
    # arrives with the one to host i - 1 in round r + 1, out of posting
    # order — only the exchange order may break the tie.
    (LinkProfile(base_delay=TICK, jitter_mean=0.0), 4, 0.0, SyncPhaseConfig(interval=TICK), TICK),
    # An interval that rounds so send times collide with each other.
    (LinkProfile(), 3, 0.0, SyncPhaseConfig(messages_per_phase=9, interval=1e-300), None),
    (LinkProfile(), 3, 0.0, SyncPhaseConfig(messages_per_phase=0), None),
    (LinkProfile(), 1, 0.0, SyncPhaseConfig(), None),
]


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("lan, host_count, granularity, config, switch_step", CASES)
def test_closed_form_equals_played_out_exchange(
    seed, lan, host_count, granularity, config, switch_step
):
    case = (seed, lan, host_count, granularity, config, switch_step)
    closed, closed_now, closed_stream = run_both_phases(run_sync_phase, *case)
    played, played_now, played_stream = run_both_phases(played_out_sync_phase, *case)
    assert [
        (row.sender, row.receiver, row.send_time.hex(), row.receive_time.hex())
        for row in closed
    ] == [
        (row.sender, row.receiver, row.send_time.hex(), row.receive_time.hex())
        for row in played
    ]
    assert closed.hosts == played.hosts
    assert closed_now == played_now
    assert closed_stream == played_stream


def test_late_rows_land_inside_the_experiment_only():
    lan = LinkProfile(base_delay=0.012, jitter_mean=0.0)
    environment, names = build_environment(5, lan, 2, 0.0)
    table = run_sync_phase(environment, names[0], tuple(names))
    # A 12.05 ms delay outlasts the 10 ms tail for the last two rounds:
    # four of the 50 messages are still in flight when the phase ends.
    assert len(table) == 46
    experiment_stand_in(environment)
    assert len(table) == 50
    # The campaign runs nothing after the closing phase, so its late rows
    # stay queued and are never recorded.
    run_sync_phase(environment, names[0], tuple(names), table=table)
    assert len(table) == 96
