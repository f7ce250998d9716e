"""Tests of the topology-aware network layer and its fault plumbing.

Covers the :class:`~repro.sim.topology.Topology` / ``LinkState`` model,
runtime link mutation (partitions, asymmetric outages, degradation, loss,
duplication, reordering), the structured delivery-event log, the
``NetworkFaultSpec`` textual round trip, state-triggered and scheduled
network faults threaded through the fault layer, and the store-fingerprint
coverage of the network model.
"""

import pytest

from repro.core.campaign import run_single_study
from repro.core.expression import StateAtom
from repro.core.faults import FaultParser
from repro.core.specs.fault_spec import (
    FaultDefinition,
    FaultSpecification,
    FaultTrigger,
    format_fault_specification,
    network_fault,
    parse_fault_specification,
)
from repro.errors import (
    RuntimeConfigurationError,
    RuntimePhaseError,
    SpecificationError,
)
from repro.pipeline import analyze_study
from repro.sim.environment import Environment
from repro.sim.kernel import SimKernel
from repro.sim.network import LAN_TCP_PROFILE, LinkProfile, NetworkModel
from repro.sim.process import SimProcess
from repro.sim.rng import RandomStreams
from repro.sim.topology import (
    NetworkConfig,
    NetworkFaultKind,
    NetworkFaultSpec,
    ScheduledNetworkFault,
    Topology,
    host_of,
)
from repro.store.manifest import study_fingerprint


def make_model(default=LAN_TCP_PROFILE):
    kernel = SimKernel()
    return kernel, NetworkModel(kernel, RandomStreams(1), default_profile=default)


FAST = LinkProfile(base_delay=1e-6, jitter_mean=0.0)


# ---------------------------------------------------------------------------
# Topology and link state
# ---------------------------------------------------------------------------


class TestTopology:
    def test_host_of_endpoint(self):
        assert host_of("hosta/p1") == "hosta"
        assert host_of("bare") == "bare"

    def test_intra_host_link_gets_ipc_profile(self):
        topology = Topology()
        assert topology.link("h", "h").profile == topology.ipc_profile
        assert topology.link("h", "g").profile == topology.default_profile

    def test_links_are_directed_and_lazy(self):
        topology = Topology()
        forward = topology.link("a", "b")
        backward = topology.link("b", "a")
        assert forward is not backward
        assert forward.name == "a->b"
        assert set(topology.links()) == {("a", "b"), ("b", "a")}

    def test_set_profile_symmetric_pins_both_directions(self):
        topology = Topology()
        topology.set_profile("a", "b", FAST, symmetric=True)
        assert topology.link("a", "b").profile == FAST
        assert topology.link("b", "a").profile == FAST

    def test_partition_needs_two_groups(self):
        with pytest.raises(RuntimeConfigurationError):
            Topology().partition([("a", "b")])

    def test_partition_separates_only_cross_group_pairs(self):
        topology = Topology()
        topology.partition([("a",), ("b", "c")])
        assert topology.is_partitioned("a", "b")
        assert topology.is_partitioned("c", "a")
        assert not topology.is_partitioned("b", "c")
        # Hosts not named in any group are unaffected.
        assert not topology.is_partitioned("a", "elsewhere")

    def test_remove_partition_token(self):
        topology = Topology()
        token = topology.partition([("a",), ("b",)])
        topology.partition([("a",), ("c",)])
        topology.remove_partition(token)
        assert not topology.is_partitioned("a", "b")
        assert topology.is_partitioned("a", "c")
        # Removing twice is harmless (a global heal may beat the timer).
        topology.remove_partition(token)

    def test_heal_restores_links_and_partitions(self):
        topology = Topology()
        topology.partition([("a",), ("b",)])
        link = topology.link("a", "b")
        link.up = False
        link.profile = FAST
        link.duplicate_probability = 0.5
        topology.heal()
        assert not topology.is_partitioned("a", "b")
        assert link.up
        assert link.profile == topology.default_profile
        assert link.duplicate_probability == 0.0

    def test_blocked_reason_precedence(self):
        topology = Topology()
        assert topology.blocked_reason("a", "b") is None
        topology.partition([("a",), ("b",)])
        assert topology.blocked_reason("a", "b") == "partitioned"
        topology.link("a", "b").up = False
        assert topology.blocked_reason("a", "b") == "link-down"


# ---------------------------------------------------------------------------
# Delivery over mutable links
# ---------------------------------------------------------------------------


class TestNetworkModelDelivery:
    def test_set_link_profile_accepts_endpoints(self):
        kernel, model = make_model(LinkProfile(base_delay=1.0, jitter_mean=0.0))
        # The pre-topology contract passed endpoints; they normalize to hosts.
        model.set_link_profile("a/p", "b/q", FAST)
        assert model.profile_for("a/x", "b/y") == FAST

    def test_asymmetric_link_down_blocks_one_direction_only(self):
        kernel, model = make_model(FAST)
        model.set_link_down("a", "b", symmetric=False)
        received = []
        model.send("a/p", "b/q", 1, deliver=lambda m: received.append(m.payload))
        model.send("b/q", "a/p", 2, deliver=lambda m: received.append(m.payload))
        kernel.run()
        assert received == [2]
        assert model.messages_dropped == 1
        assert [e.kind for e in model.events] == ["link-down"]

    def test_link_down_duration_auto_heals(self):
        kernel, model = make_model(FAST)
        model.set_link_down("a", "b", duration=0.5)
        received = []
        model.send("a/p", "b/q", "early", deliver=lambda m: received.append(m.payload))
        kernel.run(until=1.0)  # processes the scheduled auto-heal at t=0.5
        model.send("a/p", "b/q", "late", deliver=lambda m: received.append(m.payload))
        kernel.run()
        assert received == ["late"]

    def test_partition_duration_auto_heals(self):
        kernel, model = make_model(FAST)
        model.partition(("a",), ("b",), duration=0.5)
        received = []
        model.send("a/p", "b/q", "early", deliver=lambda m: received.append(m.payload))
        kernel.run(until=1.0)  # processes the scheduled auto-heal at t=0.5
        model.send("a/p", "b/q", "late", deliver=lambda m: received.append(m.payload))
        kernel.run()
        assert received == ["late"]
        kinds = [e.kind for e in model.events]
        assert kinds == ["partitioned"]

    def test_stale_link_down_expiry_does_not_cut_newer_outage_short(self):
        kernel, model = make_model(FAST)
        model.set_link_down("a", "b", duration=0.3)
        kernel.run(until=0.2)
        model.set_link_down("a", "b", duration=0.3)  # re-armed at t=0.2
        kernel.run(until=0.4)  # the first timer (t=0.3) must be a no-op
        assert not model.topology.link("a", "b").up
        kernel.run(until=0.6)  # the second timer (t=0.5) heals
        assert model.topology.link("a", "b").up

    def test_stale_partition_expiry_does_not_heal_newer_identical_partition(self):
        kernel, model = make_model(FAST)
        model.partition(("a",), ("b",), duration=0.2)
        kernel.run(until=0.1)
        model.heal()
        model.partition(("a",), ("b",))  # identical groups, no duration
        kernel.run(until=0.3)  # the stale t=0.2 timer must not remove it
        assert model.is_partitioned("a/p", "b/q")

    def test_overlapping_timed_degrades_restore_pristine_profile(self):
        kernel, model = make_model(FAST)
        slow = LinkProfile(base_delay=0.2, jitter_mean=0.0)
        model.degrade("a", "b", slow, duration=0.1)
        kernel.run(until=0.05)
        model.degrade("a", "b", slow, duration=0.1)  # re-armed mid-window
        kernel.run(until=0.12)  # first expiry: token mismatch, no-op
        assert model.profile_for("a/p", "b/q") == slow
        kernel.run(until=0.2)  # second expiry restores the pre-chain profile
        assert model.profile_for("a/p", "b/q") == FAST

    def test_permanent_degrade_becomes_baseline_for_timed_degrade(self):
        kernel, model = make_model(FAST)
        slow = LinkProfile(base_delay=0.2, jitter_mean=0.0)
        slower = LinkProfile(base_delay=0.5, jitter_mean=0.0)
        model.degrade("a", "b", slow)  # permanent: the new baseline
        model.degrade("a", "b", slower, duration=0.1)
        kernel.run(until=0.2)
        assert model.profile_for("a/p", "b/q") == slow

    def test_stale_degrade_expiry_does_not_stomp_newer_loss_setting(self):
        kernel, model = make_model(FAST)
        slow = LinkProfile(base_delay=0.2, jitter_mean=0.0)
        model.degrade("a", "b", slow, duration=0.1)
        kernel.run(until=0.05)
        model.set_loss("a", "b", probability=0.5)
        kernel.run(until=0.2)  # the degrade restore at t=0.1 must be a no-op
        assert model.topology.link("a", "b").profile.loss_probability == 0.5

    def test_degrade_with_duration_restores_previous_profile(self):
        kernel, model = make_model(FAST)
        slow = LinkProfile(base_delay=0.2, jitter_mean=0.0)
        model.degrade("a", "b", slow, duration=1.0)
        assert model.profile_for("a/p", "b/q") == slow
        kernel.run(until=2.0)  # processes the scheduled restore at t=1.0
        assert model.profile_for("a/p", "b/q") == FAST

    def test_set_loss_drops_and_records_events(self):
        kernel, model = make_model(FAST)
        model.set_loss("a", "b", probability=0.5)
        received = []
        for _ in range(200):
            model.send("a/p", "b/q", 1, deliver=lambda m: received.append(m))
        kernel.run()
        assert 0 < len(received) < 200
        lost = [e for e in model.events if e.kind == "lost"]
        assert len(lost) == 200 - len(received)
        assert model.messages_dropped == len(lost)
        assert lost[0].source == "a/p" and lost[0].destination == "b/q"

    def test_duplicate_delivers_twice_and_preserves_fifo(self):
        kernel, model = make_model(FAST)
        model.set_duplicate("a", "b", probability=1.0)
        received = []
        model.send("a/p", "b/q", "m1", deliver=lambda m: received.append(m.payload))
        model.send("a/p", "b/q", "m2", deliver=lambda m: received.append(m.payload))
        kernel.run()
        assert sorted(received) == ["m1", "m1", "m2", "m2"]
        assert model.messages_duplicated == 2
        assert received[0] == "m1"  # the first copy still arrives first
        assert [e.kind for e in model.events] == ["duplicated", "duplicated"]

    def test_reorder_lets_later_messages_overtake(self):
        kernel, model = make_model(LinkProfile(base_delay=1e-4, jitter_mean=0.0))
        # Reorder every message by up to a large window: with 20 messages
        # the arrival order almost surely differs from the send order.
        model.set_reorder("a", "b", probability=1.0, window=0.05)
        received = []
        for index in range(20):
            model.send("a/p", "b/q", index, deliver=lambda m: received.append(m.payload))
        kernel.run()
        assert sorted(received) == list(range(20))
        assert received != list(range(20))
        assert model.messages_reordered == 20

    def test_reorder_requires_positive_window(self):
        _, model = make_model(FAST)
        with pytest.raises(RuntimeConfigurationError):
            model.set_reorder("a", "b", probability=0.5, window=0.0)

    def test_default_path_consumes_identical_rng_stream(self):
        """The topology engine must not disturb the RNG draw order.

        A jittery, lossy profile exercises both draws; the reference is a
        hand-rolled replica of the pre-topology draw sequence on an
        identically seeded stream.
        """
        profile = LinkProfile(base_delay=1e-3, jitter_mean=1e-4, loss_probability=0.3)
        kernel, model = make_model(profile)
        arrivals = []
        for _ in range(50):
            model.send("a/p", "b/q", 0, deliver=lambda m: arrivals.append(kernel.now))
        kernel.run()

        reference_rng = RandomStreams(1).stream("network")
        expected = []
        floor = 0.0
        for _ in range(50):
            if reference_rng.random() < profile.loss_probability:
                continue
            arrival = max(profile.sample_delay(reference_rng), floor)
            floor = arrival
            expected.append(arrival)
        assert arrivals == pytest.approx(expected)


# ---------------------------------------------------------------------------
# NetworkFaultSpec: validation, text round trip, apply()
# ---------------------------------------------------------------------------


class TestNetworkFaultSpec:
    def round_trip(self, spec):
        token = spec.to_token()
        assert " " not in token
        assert NetworkFaultSpec.from_token(token) == spec
        return token

    def test_token_round_trips(self):
        self.round_trip(
            NetworkFaultSpec(
                kind=NetworkFaultKind.PARTITION,
                groups=(("hosta",), ("hostb", "hostc")),
                duration=0.08,
            )
        )
        self.round_trip(NetworkFaultSpec(kind=NetworkFaultKind.HEAL))
        self.round_trip(
            NetworkFaultSpec(
                kind=NetworkFaultKind.LINK_DOWN,
                link=("hosta", "hostb"),
                symmetric=False,
                duration=0.3,
            )
        )
        self.round_trip(
            NetworkFaultSpec(kind=NetworkFaultKind.LINK_UP, link=("hosta", "hostb"))
        )
        self.round_trip(
            NetworkFaultSpec(
                kind=NetworkFaultKind.DEGRADE,
                link=("hosta", "hostb"),
                profile=LinkProfile(base_delay=0.002, jitter_mean=0.0005, loss_probability=0.1),
            )
        )
        self.round_trip(
            NetworkFaultSpec(
                kind=NetworkFaultKind.SET_LOSS, link=("a", "b"), probability=0.25
            )
        )
        self.round_trip(
            NetworkFaultSpec(
                kind=NetworkFaultKind.SET_REORDER,
                link=("a", "b"),
                probability=0.5,
                window=0.002,
            )
        )

    def test_validation_rejects_malformed_specs(self):
        with pytest.raises(SpecificationError):
            NetworkFaultSpec(kind=NetworkFaultKind.PARTITION, groups=(("a",),))
        with pytest.raises(SpecificationError):
            NetworkFaultSpec(kind=NetworkFaultKind.LINK_DOWN)
        with pytest.raises(SpecificationError):
            NetworkFaultSpec(kind=NetworkFaultKind.DEGRADE, link=("a", "b"))
        with pytest.raises(SpecificationError):
            NetworkFaultSpec(kind=NetworkFaultKind.SET_LOSS, link=("a", "b"))
        with pytest.raises(SpecificationError):
            NetworkFaultSpec(
                kind=NetworkFaultKind.SET_LOSS, link=("a", "b"), probability=1.5
            )
        with pytest.raises(SpecificationError):
            NetworkFaultSpec(
                kind=NetworkFaultKind.SET_REORDER, link=("a", "b"), probability=0.5
            )
        with pytest.raises(SpecificationError):
            NetworkFaultSpec(
                kind=NetworkFaultKind.LINK_DOWN, link=("a", "b"), duration=-1.0
            )
        # Kinds with no way to undo themselves must reject a duration
        # instead of silently ignoring it.
        with pytest.raises(SpecificationError, match="duration"):
            NetworkFaultSpec(
                kind=NetworkFaultKind.SET_LOSS,
                link=("a", "b"),
                probability=0.5,
                duration=0.1,
            )
        with pytest.raises(SpecificationError, match="duration"):
            NetworkFaultSpec(kind=NetworkFaultKind.HEAL, duration=0.1)

    def test_host_names_clashing_with_token_grammar_rejected(self):
        # Delimiter characters (or the literal 'one-way') in a referenced
        # host name would make the token deserialize into a different spec.
        for bad in ("db+cache", "a|b", "a;b", "a=b", "one-way", "a->b", ""):
            with pytest.raises(SpecificationError, match="network fault"):
                NetworkFaultSpec(
                    kind=NetworkFaultKind.PARTITION, groups=((bad,), ("other",))
                )
            with pytest.raises(SpecificationError, match="network fault"):
                NetworkFaultSpec(kind=NetworkFaultKind.LINK_DOWN, link=(bad, "other"))

    def test_from_token_rejects_garbage(self):
        with pytest.raises(SpecificationError):
            NetworkFaultSpec.from_token("partition[a|b]")
        with pytest.raises(SpecificationError):
            NetworkFaultSpec.from_token("network:frobnicate[a|b]")
        with pytest.raises(SpecificationError):
            NetworkFaultSpec.from_token("network:set_loss[a->b;q=0.5]")

    def test_apply_records_mutations(self):
        kernel, model = make_model(FAST)
        spec = NetworkFaultSpec(
            kind=NetworkFaultKind.PARTITION, groups=(("a",), ("b",))
        )
        model.apply(spec, label="F1")
        assert model.is_partitioned("a/p", "b/q")
        assert len(model.mutations) == 1
        assert model.mutations[0].label == "F1"
        assert model.mutations[0].description == spec.to_token()
        model.apply(NetworkFaultSpec(kind=NetworkFaultKind.HEAL), label="F2")
        assert not model.is_partitioned("a/p", "b/q")

    def test_auto_undo_is_logged_on_the_mutation_timeline(self):
        kernel, model = make_model(FAST)
        model.apply(
            NetworkFaultSpec(
                kind=NetworkFaultKind.PARTITION,
                groups=(("a",), ("b",)),
                duration=0.1,
            ),
            label="F1",
        )
        model.apply(
            NetworkFaultSpec(
                kind=NetworkFaultKind.LINK_DOWN,
                link=("a", "c"),
                symmetric=False,
                duration=0.2,
            ),
            label="F2",
        )
        kernel.run(until=0.5)
        descriptions = [(m.label, m.description) for m in model.mutations]
        assert ("F1", "auto-heal partition") in descriptions
        assert ("F2", "auto link_up a->c") in descriptions
        times = [m.time for m in model.mutations]
        assert times == sorted(times)

    def test_apply_set_duplicate_and_link_up(self):
        _, model = make_model(FAST)
        model.apply(
            NetworkFaultSpec(
                kind=NetworkFaultKind.SET_DUPLICATE, link=("a", "b"), probability=0.5
            )
        )
        assert model.topology.link("a", "b").duplicate_probability == 0.5
        model.apply(
            NetworkFaultSpec(kind=NetworkFaultKind.LINK_DOWN, link=("a", "b"))
        )
        model.apply(NetworkFaultSpec(kind=NetworkFaultKind.LINK_UP, link=("a", "b")))
        assert model.topology.link("a", "b").up


# ---------------------------------------------------------------------------
# Fault-specification integration
# ---------------------------------------------------------------------------


class TestNetworkFaultSpecification:
    def spec(self):
        return NetworkFaultSpec(
            kind=NetworkFaultKind.PARTITION,
            groups=(("hosta",), ("hostb", "hostc")),
            duration=0.08,
        )

    def test_network_fault_helper_and_to_text(self):
        fault = network_fault("NP1", "((c:PREPARE) & (p:VOTED))", self.spec())
        assert fault.trigger is FaultTrigger.ONCE
        assert fault.to_text() == (
            "NP1 ((c:PREPARE) & (p:VOTED)) once "
            "network:partition[hosta|hostb+hostc;duration=0.08]"
        )

    def test_parse_format_round_trip_with_network_token(self):
        fault = network_fault("NP1", "((c:PREPARE) & (p:VOTED))", self.spec())
        specification = FaultSpecification.from_definitions([fault])
        text = format_fault_specification(specification)
        parsed = parse_fault_specification(text)
        assert parsed.get("NP1") == fault

    def test_parse_rejects_network_token_without_trigger(self):
        with pytest.raises(SpecificationError):
            parse_fault_specification("NP1 (c:PREPARE) network:heal")

    def test_fault_parser_applies_network_fault(self):
        kernel = SimKernel()
        model = NetworkModel(kernel, RandomStreams(0), default_profile=FAST)
        fault = network_fault("NP1", StateAtom("c", "PREPARE"), self.spec())
        parser = FaultParser(FaultSpecification.from_definitions([fault]))
        parser.attach_network_injector(
            lambda definition: model.apply(definition.network, label=definition.name)
            or kernel.now
        )
        performed = parser.on_view_change({"c": "PREPARE"})
        assert [request.fault.name for request in performed] == ["NP1"]
        assert model.is_partitioned("hosta/x", "hostb/y")

    def test_fault_parser_without_injector_raises(self):
        fault = network_fault("NP1", StateAtom("c", "PREPARE"), self.spec())
        parser = FaultParser(FaultSpecification.from_definitions([fault]))
        with pytest.raises(RuntimePhaseError, match="network"):
            parser.on_view_change({"c": "PREPARE"})


# ---------------------------------------------------------------------------
# Study-level plumbing: schedule, fingerprints
# ---------------------------------------------------------------------------


class TestStudyNetworkPlumbing:
    def test_scheduled_fault_rejects_negative_offset(self):
        with pytest.raises(SpecificationError):
            ScheduledNetworkFault(
                at=-1.0, spec=NetworkFaultSpec(kind=NetworkFaultKind.HEAL)
            )

    def test_environment_applies_link_profile_overrides(self):
        config = NetworkConfig(link_profiles=(("hosta", "hostb", FAST),))
        env = Environment(network=config)
        assert env.topology.link("hosta", "hostb").profile == FAST
        assert env.topology.link("hostb", "hosta").profile == env.lan_profile

    def test_fingerprint_covers_schedule_and_network_faults(self):
        from repro.apps.tokenring import build_tokenring_study

        plain = build_tokenring_study("ring", faults_by_machine={}, experiments=1)
        scheduled = build_tokenring_study(
            "ring",
            faults_by_machine={},
            network=NetworkConfig(
                schedule=(
                    ScheduledNetworkFault(
                        at=0.1,
                        spec=NetworkFaultSpec(
                            kind=NetworkFaultKind.PARTITION,
                            groups=(("hosta",), ("hostb", "hostc")),
                        ),
                    ),
                )
            ),
            experiments=1,
        )
        assert study_fingerprint(plain) != study_fingerprint(scheduled)

    def test_default_network_keeps_pre_topology_fingerprint_shape(self):
        """Studies that never touch the network model omit the key entirely.

        This keeps default-topology fingerprints identical to what the
        pre-topology implementation hashed, so campaign stores written
        before the refactor stay resumable.
        """
        from repro.apps.tokenring import build_tokenring_study
        from repro.store.manifest import study_description

        plain = build_tokenring_study("ring", faults_by_machine={}, experiments=1)
        assert "network" not in study_description(plain)
        configured = build_tokenring_study(
            "ring",
            faults_by_machine={},
            network=NetworkConfig(link_profiles=(("hosta", "hostb", FAST),)),
            experiments=1,
        )
        assert "network" in study_description(configured)

    def test_fingerprint_covers_state_triggered_network_fault(self):
        from repro.apps.twophase import build_twophase_study

        crash = build_twophase_study(
            "2pc",
            faults_by_machine={
                "coordinator": (
                    FaultDefinition(
                        "cfault1", StateAtom("coordinator", "PREPARE"), FaultTrigger.ONCE
                    ),
                )
            },
            experiments=1,
        )
        partition = build_twophase_study(
            "2pc",
            faults_by_machine={
                "coordinator": (
                    network_fault(
                        "cfault1",
                        StateAtom("coordinator", "PREPARE"),
                        NetworkFaultSpec(
                            kind=NetworkFaultKind.PARTITION,
                            groups=(("hosta",), ("hostb", "hostc")),
                        ),
                    ),
                )
            },
            experiments=1,
        )
        assert study_fingerprint(crash) != study_fingerprint(partition)

    def test_scheduled_partition_blocks_cross_host_traffic_in_study(self):
        """A scheduled partition visibly cuts substrate traffic mid-run."""
        from repro.apps.tokenring import build_tokenring_study

        study = build_tokenring_study(
            "ring-split",
            faults_by_machine={},
            network=NetworkConfig(
                schedule=(
                    ScheduledNetworkFault(
                        at=0.05,
                        spec=NetworkFaultSpec(
                            kind=NetworkFaultKind.PARTITION,
                            groups=(("hosta",), ("hostb", "hostc")),
                            duration=0.1,
                        ),
                        name="split",
                    ),
                )
            ),
            experiments=1,
            seed=3,
        )
        analysis = analyze_study(run_single_study(study))
        assert analysis.experiments[0].result.completed


# ---------------------------------------------------------------------------
# Environment bookkeeping: loss path, delivery events, duplicate names
# ---------------------------------------------------------------------------


class _Sender(SimProcess):
    """Sends a burst of messages to a fixed destination on start."""

    def __init__(self, name, destination, count=1):
        super().__init__(name)
        self.destination = destination
        self.count = count

    def start(self):
        for _ in range(self.count):
            self.send(self.destination, "ping")


class _Sink(SimProcess):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def receive(self, message):
        self.received.append(message.payload)


class TestEnvironmentBookkeeping:
    def make_env(self, **kwargs):
        env = Environment(seed=2, **kwargs)
        env.add_host("hosta")
        env.add_host("hostb")
        return env

    def test_lossy_lan_profile_drops_are_recorded(self):
        env = self.make_env(
            lan_profile=LinkProfile(base_delay=1e-6, jitter_mean=0.0, loss_probability=0.5)
        )
        sink = _Sink("sink")
        env.spawn(sink, "hostb")
        env.spawn(_Sender("sender", "sink", count=200), "hosta")
        env.run()
        lost = [e for e in env.delivery_events if e.kind == "lost"]
        assert 0 < len(sink.received) < 200
        assert len(lost) == 200 - len(sink.received)
        assert env.network.messages_dropped == len(lost)
        # Network-level events carry full endpoints.
        assert lost[0].source == "hosta/sender"
        assert lost[0].destination == "hostb/sink"

    def test_lossless_default_has_no_events(self):
        env = self.make_env()
        sink = _Sink("sink")
        env.spawn(sink, "hostb")
        env.spawn(_Sender("sender", "sink", count=20), "hosta")
        env.run()
        assert sink.received == ["ping"] * 20
        assert env.delivery_events == []

    def test_dead_target_recorded_as_structured_event(self):
        # The target never existed, or it died while the message was in
        # flight: either way the drop is recorded between process names.
        for target, dies_at in (("ghost", None), ("sink", 50e-6)):
            env = self.make_env()
            if dies_at is not None:
                sink = env.spawn(_Sink(target), "hostb")
                env.kernel.schedule(dies_at, sink.crash)
            env.spawn(_Sender("sender", target), "hosta")
            env.run()
            events = env.delivery_events
            assert len(events) == 1, target
            assert events[0].kind == "dead-target"
            assert events[0].source == "sender"
            assert events[0].destination == target
            assert events[0].time >= (dies_at or 0.0)

    def test_partitioned_send_recorded_not_silently_dropped(self):
        env = self.make_env()
        sink = _Sink("sink")
        env.spawn(sink, "hostb")
        sender = _Sender("sender", "sink")
        env.spawn(sender, "hosta")
        env.network.partition(("hosta",), ("hostb",))
        env.run()
        assert sink.received == []
        kinds = [e.kind for e in env.delivery_events]
        assert kinds == ["partitioned"]
        # The pair also shows up in the partition-aware query API.
        assert env.network.is_partitioned("hosta/sender", "hostb/sink")

    def test_duplicate_host_name_rejected_with_clear_error(self):
        env = self.make_env()
        with pytest.raises(RuntimeConfigurationError, match="hosta"):
            env.add_host("hosta")

    def test_host_name_with_slash_rejected(self):
        env = Environment()
        with pytest.raises(RuntimeConfigurationError, match="separator"):
            env.add_host("host/a")

    def test_duplicate_live_process_name_rejected_with_host_in_message(self):
        env = self.make_env()
        env.spawn(_Sink("worker"), "hosta")
        with pytest.raises(RuntimeConfigurationError, match="hosta"):
            env.spawn(_Sink("worker"), "hostb")

    def test_process_name_with_slash_rejected(self):
        env = self.make_env()
        with pytest.raises(RuntimeConfigurationError, match="separator"):
            env.spawn(_Sink("bad/name"), "hosta")

    def test_dead_process_name_reuse_still_allowed_for_restarts(self):
        env = self.make_env()
        first = _Sink("worker")
        env.spawn(first, "hosta")
        env.run()
        first.crash(reason="test")
        second = _Sink("worker")
        env.spawn(second, "hostb")
        assert env.process("worker") is second
