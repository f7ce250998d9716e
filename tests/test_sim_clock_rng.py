"""Unit tests for hardware clocks and deterministic random streams."""

import random

import numpy as np
import pytest

from repro.errors import RuntimeConfigurationError
from repro.sim.clock import ClockParameters, HardwareClock
from repro.sim.rng import RandomStreams


class TestClockParameters:
    def test_defaults_are_perfect_clock(self):
        parameters = ClockParameters()
        assert parameters.offset == 0.0
        assert parameters.rate == 1.0
        assert parameters.granularity == 0.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(RuntimeConfigurationError):
            ClockParameters(rate=0.0)
        with pytest.raises(RuntimeConfigurationError):
            ClockParameters(rate=-1.0)

    def test_rejects_negative_granularity(self):
        with pytest.raises(RuntimeConfigurationError):
            ClockParameters(granularity=-1e-6)


class TestHardwareClock:
    def test_perfect_clock_reads_physical_time(self):
        clock = HardwareClock()
        assert clock.read(12.5) == pytest.approx(12.5)

    def test_offset_and_rate_applied(self):
        clock = HardwareClock(ClockParameters(offset=2.0, rate=1.001))
        assert clock.read(10.0) == pytest.approx(2.0 + 1.001 * 10.0)

    def test_granularity_quantizes_reads(self):
        clock = HardwareClock(ClockParameters(granularity=0.010))
        assert clock.read(0.0154) == pytest.approx(0.010)
        assert clock.read(0.0299) == pytest.approx(0.020)

    def test_to_physical_inverts_read(self):
        clock = HardwareClock(ClockParameters(offset=-1.5, rate=0.9997))
        physical = 42.0
        assert clock.to_physical(clock.read(physical)) == pytest.approx(physical)

    def test_reads_are_monotonic(self):
        clock = HardwareClock(ClockParameters(offset=3.0, rate=1.0002, granularity=1e-6))
        times = [clock.read(t * 0.01) for t in range(100)]
        assert times == sorted(times)

    def test_relative_to_reference(self):
        reference = HardwareClock(ClockParameters(offset=1.0, rate=1.0001))
        other = HardwareClock(ClockParameters(offset=-0.5, rate=0.9998))
        alpha, beta = other.relative_to(reference)
        # C_other(t) should equal alpha + beta * C_ref(t) for any t.
        for t in (0.0, 3.7, 100.0):
            assert other.read(t) == pytest.approx(alpha + beta * reference.read(t))

    @pytest.mark.parametrize("granularity", [0.0, 1e-6, 0.010])
    def test_array_reads_equal_scalar_reads_bitwise(self, granularity):
        # The sync phase reads a whole column of instants in one call.
        rng = random.Random(granularity)
        times = [rng.uniform(0.0, 50.0) for _ in range(5000)]
        clock = HardwareClock(
            ClockParameters(offset=-0.0123, rate=1.0000437, granularity=granularity)
        )
        column = clock.read(np.array(times))
        assert [value.hex() for value in column.tolist()] == [
            clock.read(time).hex() for time in times
        ]

    def test_relative_to_self_is_identity(self):
        clock = HardwareClock(ClockParameters(offset=0.25, rate=1.00005))
        alpha, beta = clock.relative_to(clock)
        assert alpha == pytest.approx(0.0)
        assert beta == pytest.approx(1.0)


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(42).stream("network")
        b = RandomStreams(42).stream("network")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RandomStreams(42)
        first = [streams.stream("a").random() for _ in range(5)]
        second = [streams.stream("b").random() for _ in range(5)]
        assert first != second

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").random()
        b = RandomStreams(2).stream("x").random()
        assert a != b

    def test_stream_is_cached(self):
        streams = RandomStreams(0)
        assert streams.stream("x") is streams.stream("x")

    def test_spawn_produces_independent_child(self):
        parent = RandomStreams(7)
        child = parent.spawn("child")
        assert child.seed != parent.seed
        assert child.stream("x").random() != parent.stream("x").random()

    def test_seed_property(self):
        assert RandomStreams(123).seed == 123

