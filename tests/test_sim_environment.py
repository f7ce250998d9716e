"""Integration tests of the environment facade: hosts, processes, messaging."""

import pytest

from repro.errors import RuntimeConfigurationError
from repro.sim.clock import ClockParameters
from repro.sim.environment import Environment
from repro.sim.network import LinkProfile
from repro.sim.process import SimProcess


class Echo(SimProcess):
    """Replies to every message with its payload incremented by one."""

    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def receive(self, message):
        self.received.append(message.payload)
        if isinstance(message.payload, int):
            sender = message.source.split("/", 1)[1]
            self.send(sender, message.payload + 1)


class Starter(SimProcess):
    def __init__(self, name, target):
        super().__init__(name)
        self.target = target
        self.received = []

    def start(self):
        self.send(self.target, 1)

    def receive(self, message):
        self.received.append(message.payload)


def make_env(**kwargs):
    env = Environment(seed=3, **kwargs)
    env.add_host("hosta")
    env.add_host("hostb")
    return env


def test_duplicate_host_rejected():
    env = make_env()
    with pytest.raises(RuntimeConfigurationError):
        env.add_host("hosta")


def test_unknown_host_lookup_rejected():
    env = make_env()
    with pytest.raises(RuntimeConfigurationError):
        env.host("nope")


def test_request_reply_between_hosts():
    env = make_env()
    echo = Echo("echo")
    starter = Starter("starter", "echo")
    env.spawn(echo, "hostb")
    env.spawn(starter, "hosta")
    env.run()
    assert echo.received == [1]
    assert starter.received == [2]


def test_processes_on_same_host_use_ipc_profile():
    env = Environment(
        seed=1,
        ipc_profile=LinkProfile(base_delay=1e-6, jitter_mean=0.0),
        lan_profile=LinkProfile(base_delay=10.0, jitter_mean=0.0),
    )
    env.add_host("hosta")
    echo = Echo("echo")
    starter = Starter("starter", "echo")
    env.spawn(echo, "hosta")
    env.spawn(starter, "hosta")
    env.run(until=1.0)
    # With a 10-second LAN delay, only the IPC path can deliver within 1s.
    assert echo.received == [1]


def test_message_to_dead_process_recorded_as_dead_target():
    env = make_env()
    starter = Starter("starter", "ghost")
    env.spawn(starter, "hosta")
    env.run()
    dead = [(e.source, e.destination) for e in env.delivery_events if e.kind == "dead-target"]
    assert dead == [("starter", "ghost")]


def test_process_crash_notifies_listeners():
    env = make_env()
    observed = []
    env.add_termination_listener(lambda process, crashed: observed.append((process.name, crashed)))
    victim = Echo("victim")
    env.spawn(victim, "hosta")
    env.run()
    victim.crash(reason="test")
    assert observed == [("victim", True)]
    assert victim.crashed and not victim.exited


def test_process_exit_notifies_listeners():
    env = make_env()
    observed = []
    env.add_termination_listener(lambda process, crashed: observed.append((process.name, crashed)))
    worker = Echo("worker")
    env.spawn(worker, "hostb")
    env.run()
    worker.exit()
    assert observed == [("worker", False)]
    assert worker.exited and not worker.crashed


def test_timers_cancelled_on_crash():
    env = make_env()
    fired = []

    class Timed(SimProcess):
        def start(self):
            self.set_timer(0.5, lambda: fired.append("late"))
            self.set_timer(0.1, lambda: self.crash(reason="early"))

    env.spawn(Timed("timed"), "hosta")
    env.run()
    assert fired == []


def test_duplicate_live_process_name_rejected():
    env = make_env()
    env.spawn(Echo("proc"), "hosta")
    with pytest.raises(RuntimeConfigurationError):
        env.spawn(Echo("proc"), "hostb")


def test_dead_process_name_can_be_reused():
    env = make_env()
    first = Echo("proc")
    env.spawn(first, "hosta")
    env.run()
    first.crash()
    replacement = Echo("proc")
    env.spawn(replacement, "hostb")
    env.run()
    assert env.process("proc") is replacement


def test_host_clock_parameters_respected():
    env = Environment(seed=0)
    env.add_host("hosta", clock=ClockParameters(offset=1.0, rate=2.0))
    env.kernel.advance_to(3.0)
    assert env.host("hosta").clock.read(env.kernel.now) == pytest.approx(1.0 + 2.0 * 3.0)


def test_run_until_condition():
    # A process that meets the condition stops the kernel: run() returns
    # there, with the next tick still pending.
    env = make_env()
    counter = []

    class Ticker(SimProcess):
        def start(self):
            self.tick()

        def tick(self):
            counter.append(env.kernel.now)
            if len(counter) == 5:
                env.kernel.stop()
            self.set_timer(0.1, self.tick)

    env.spawn(Ticker("tick"), "hosta")
    env.run(until=10.0)
    assert len(counter) == 5
    assert env.kernel.now == pytest.approx(0.4)
    assert env.kernel.pending == 1


def test_endpoint_format():
    env = make_env()
    process = Echo("proc")
    env.spawn(process, "hostb")
    assert env.endpoint("proc") == "hostb/proc"
