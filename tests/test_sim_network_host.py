"""Unit tests for the network model, hosts, and the OS scheduling model."""

import pytest

from repro.errors import RuntimeConfigurationError
from repro.sim.clock import ClockParameters
from repro.sim.environment import Environment
from repro.sim.host import Host, SchedulerConfig
from repro.sim.kernel import SimKernel
from repro.sim.network import IPC_PROFILE, LAN_TCP_PROFILE, LinkProfile, NetworkModel
from repro.sim.process import SimProcess
from repro.sim.rng import RandomStreams


def make_network(default=LAN_TCP_PROFILE):
    kernel = SimKernel()
    return kernel, NetworkModel(kernel, RandomStreams(1), default_profile=default)


class TestLinkProfile:
    def test_defaults(self):
        profile = LinkProfile()
        assert profile.base_delay == pytest.approx(150e-6)
        assert profile.loss_probability == 0.0

    def test_rejects_negative_delays(self):
        with pytest.raises(RuntimeConfigurationError):
            LinkProfile(base_delay=-1.0)
        with pytest.raises(RuntimeConfigurationError):
            LinkProfile(jitter_mean=-1.0)

    def test_rejects_bad_loss_probability(self):
        with pytest.raises(RuntimeConfigurationError):
            LinkProfile(loss_probability=1.5)

    def test_sample_delay_at_least_base(self):
        profile = LinkProfile(base_delay=100e-6, jitter_mean=20e-6)
        rng = RandomStreams(3).stream("x")
        for _ in range(200):
            assert profile.sample_delay(rng) >= 100e-6

    def test_zero_jitter_is_deterministic(self):
        profile = LinkProfile(base_delay=50e-6, jitter_mean=0.0)
        rng = RandomStreams(3).stream("x")
        assert profile.sample_delay(rng) == pytest.approx(50e-6)

    def test_ipc_faster_than_tcp(self):
        assert IPC_PROFILE.base_delay < LAN_TCP_PROFILE.base_delay


class TestNetwork:
    def test_delivery_after_delay(self):
        kernel, network = make_network(LinkProfile(base_delay=1e-3, jitter_mean=0.0))
        received = []
        network.send("a", "b", "hello", deliver=lambda m: received.append((kernel.now, m.payload)))
        kernel.run()
        assert received == [(pytest.approx(1e-3), "hello")]
        assert network.messages_sent == 1
        assert network.messages_delivered == 1

    def test_per_link_profile_override(self):
        kernel, network = make_network(LinkProfile(base_delay=1.0, jitter_mean=0.0))
        network.set_link_profile("a", "b", LinkProfile(base_delay=1e-6, jitter_mean=0.0))
        received = []
        network.send("a", "b", 1, deliver=lambda m: received.append(kernel.now))
        kernel.run()
        assert received[0] == pytest.approx(1e-6)

    def test_partition_drops_messages(self):
        kernel, network = make_network()
        network.partition({"a"}, {"b"})
        received = []
        network.send("a", "b", 1, deliver=lambda m: received.append(m))
        kernel.run()
        assert received == []
        assert network.messages_dropped == 1

    def test_heal_partitions(self):
        kernel, network = make_network(LinkProfile(base_delay=1e-6, jitter_mean=0.0))
        network.partition({"a"}, {"b"})
        network.heal_partitions()
        received = []
        network.send("a", "b", 1, deliver=lambda m: received.append(m))
        kernel.run()
        assert len(received) == 1

    def test_lossy_link_drops_some_messages(self):
        kernel, network = make_network(LinkProfile(base_delay=1e-6, loss_probability=0.5))
        received = []
        for _ in range(200):
            network.send("a", "b", 1, deliver=lambda m: received.append(m))
        kernel.run()
        assert 0 < len(received) < 200
        assert network.messages_dropped == 200 - len(received)

    def test_message_metadata(self):
        kernel, network = make_network(LinkProfile(base_delay=1e-6, jitter_mean=0.0))
        captured = []
        kernel.advance_to(0.5)
        network.send("h1/p1", "h2/p2", {"k": 1}, deliver=captured.append)
        kernel.run()
        message = captured[0]
        assert message.source == "h1/p1"
        assert message.destination == "h2/p2"
        assert message.payload == {"k": 1}
        assert message.sent_at == 0.5
        assert message._fields == ("source", "destination", "payload", "sent_at")


class TestSchedulerConfig:
    def test_defaults(self):
        config = SchedulerConfig()
        assert config.timeslice == pytest.approx(0.010)

    def test_validation(self):
        with pytest.raises(RuntimeConfigurationError):
            SchedulerConfig(timeslice=0.0)
        with pytest.raises(RuntimeConfigurationError):
            SchedulerConfig(context_switch_cost=-1.0)
        with pytest.raises(RuntimeConfigurationError):
            SchedulerConfig(immediate_probability=2.0)
        with pytest.raises(RuntimeConfigurationError):
            SchedulerConfig(runnable_competitors=-1.0)


class TestHost:
    def make_host(self, **scheduler_kwargs):
        scheduler = SchedulerConfig(**scheduler_kwargs) if scheduler_kwargs else None
        return Host("hosta", RandomStreams(5), scheduler=scheduler)

    def test_read_clock_uses_kernel_time(self):
        # A process reads its host's clock at the kernel's current time.
        env = Environment(seed=0)
        host = env.add_host("h", clock=ClockParameters(offset=0.5, rate=1.0))
        process = env.spawn(SimProcess("p"), "h")
        env.kernel.advance_to(2.0)
        assert process.local_clock() == host.clock.read(2.0) == pytest.approx(2.5)

    def test_duplicate_process_name_rejected(self):
        # The rejected duplicate is never placed; the first keeps its host.
        env = Environment(seed=0)
        env.add_host("h")
        first = env.spawn(SimProcess("p"), "h")
        duplicate = SimProcess("p")
        with pytest.raises(RuntimeConfigurationError):
            env.spawn(duplicate, "h")
        assert duplicate.alive is False
        assert env.process("p") is first
        assert first.host is env.host("h")

    def test_scheduling_delay_bounded_by_timeslices(self):
        host = self.make_host(timeslice=0.010, context_switch_cost=50e-6,
                              runnable_competitors=1.0, immediate_probability=0.0)
        for _ in range(300):
            delay = host.scheduling_delay()
            assert 50e-6 <= delay <= 50e-6 + 0.010

    def test_immediate_probability_one_gives_only_context_switch(self):
        host = self.make_host(timeslice=0.010, context_switch_cost=50e-6,
                              immediate_probability=1.0)
        for _ in range(50):
            assert host.scheduling_delay() == pytest.approx(50e-6)

    def test_smaller_timeslice_reduces_mean_delay(self):
        slow = self.make_host(timeslice=0.010, immediate_probability=0.0)
        fast = self.make_host(timeslice=0.001, immediate_probability=0.0)
        slow_mean = sum(slow.scheduling_delay() for _ in range(500)) / 500
        fast_mean = sum(fast.scheduling_delay() for _ in range(500)) / 500
        assert fast_mean < slow_mean
