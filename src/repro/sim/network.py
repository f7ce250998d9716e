"""LAN and intra-host communication model.

The paper's Section 3.4 compares runtime designs partly on the cost of
message hops: an intra-host IPC hop (shared memory plus a semaphore) costs
on the order of 20 microseconds while a TCP/IP hop on the experimental LAN
costs on the order of 150 microseconds.  The network model reproduces this
with per-link delay profiles (a fixed base delay plus exponential jitter)
and optional message loss for fault-injection of the substrate itself.

Delivery is topology-aware: a :class:`NetworkModel` routes every message
over the :class:`~repro.sim.topology.Topology` link of its source and
destination hosts, and the link's mutable
:class:`~repro.sim.topology.LinkState` decides whether the message flows,
how it is delayed, and whether it is lost, duplicated, or reordered.  Link
state can be mutated mid-experiment through the fault-injection layer
(:meth:`NetworkModel.apply`), which makes partitions, asymmetric outages,
and degradation schedulable and state-triggerable exactly like crash
faults.  Every substrate-level delivery anomaly is recorded as a structured
:class:`DeliveryEvent` instead of being silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from math import log
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

from repro.errors import RuntimeConfigurationError
from repro.sim.kernel import SimKernel
from repro.sim.rng import RandomStream, RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (topology imports LinkProfile)
    from repro.sim.topology import LinkState, NetworkFaultSpec, Partition, Topology


@dataclass(frozen=True, slots=True)
class LinkProfile:
    """Delay characteristics of one communication link.

    Attributes
    ----------
    base_delay:
        Minimum one-way delay in seconds.
    jitter_mean:
        Mean of the exponentially distributed jitter added to the base
        delay, in seconds.  ``0`` disables jitter.
    loss_probability:
        Probability that a message on this link is silently dropped.
    """

    base_delay: float = 150e-6
    jitter_mean: float = 30e-6
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.base_delay < 0 or self.jitter_mean < 0:
            raise RuntimeConfigurationError("link delays cannot be negative")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise RuntimeConfigurationError("loss probability must be within [0, 1]")

    def sample_delay(self, rng: RandomStream) -> float:
        """Draw one one-way delay from this profile.

        A jittered profile draws one ``rng.random()`` and returns
        ``base_delay + expovariate(1.0 / jitter_mean)`` computed as
        ``random.expovariate`` does it, operation by operation
        (``-log(1 - u) / lambd`` with ``lambd`` the reciprocal), the same
        arithmetic :meth:`NetworkModel.send` applies inline.  A jitter-free
        profile draws nothing.
        """
        if self.jitter_mean > 0:
            return self.base_delay + -log(1.0 - rng.random()) / (1.0 / self.jitter_mean)
        return self.base_delay


#: Shared-memory / semaphore hop between two processes on the same host.
IPC_PROFILE = LinkProfile(base_delay=20e-6, jitter_mean=5e-6)

#: TCP/IP hop between two hosts on the experimental LAN.
LAN_TCP_PROFILE = LinkProfile(base_delay=150e-6, jitter_mean=30e-6)


class NetworkMessage(NamedTuple):
    """A message in flight between two endpoints.

    Endpoints are opaque strings of the form ``"host/process"`` assigned by
    the :class:`~repro.sim.environment.Environment`.  A named tuple rather
    than a dataclass: messages are created once per send on the hottest
    path in the simulator, and a tuple of atomic fields is both cheaper to
    build and invisible to the cyclic GC, whose generation scans otherwise
    pace large send bursts.
    """

    source: str
    destination: str
    payload: Any
    sent_at: float


@dataclass(frozen=True, slots=True)
class DeliveryEvent:
    """One substrate-level delivery anomaly, recorded for analysis.

    Attributes
    ----------
    kind:
        What happened: ``"lost"`` (probabilistic loss), ``"partitioned"``
        (an active partition separates the hosts), ``"link-down"`` (the
        directed link is down), ``"dead-target"`` (the destination process
        does not exist or is not alive), ``"duplicated"`` (a second copy
        was delivered), or ``"reordered"`` (the message bypassed the FIFO
        floor).
    source / destination:
        The endpoints as the sender addressed them (environment-level
        events use process names, network-level events use
        ``"host/process"`` endpoints).
    time:
        Physical simulation time of the event.
    detail:
        Free-form context (e.g. the link name).
    """

    kind: str
    source: str
    destination: str
    time: float
    detail: str = ""


class _Route:
    """Resolved per-endpoint-pair delivery state, cached across sends.

    Holds the directed link (a stable object every fault operation mutates
    in place), the endpoints' host names, and the pair's FIFO arrival
    floor — one cache lookup per send instead of separate host, link, and
    floor lookups.
    """

    __slots__ = ("link", "source_host", "destination_host", "floor")

    def __init__(self, link: "LinkState", source_host: str, destination_host: str) -> None:
        self.link = link
        self.source_host = source_host
        self.destination_host = destination_host
        self.floor = 0.0


@dataclass(frozen=True, slots=True)
class NetworkMutation:
    """A record of one runtime change to the network model."""

    time: float
    label: str
    description: str


class NetworkModel:
    """Routes messages over a topology of links with mutable state.

    This is the delivery engine of the substrate: it resolves each
    message's link from the source/destination hosts, samples loss and
    delay from the link's current state, enforces the per-connection FIFO
    floor (TCP and the IPC queue deliver in order per directed endpoint
    pair), and applies runtime link mutations (:meth:`apply`).

    For the default fully connected topology the engine consumes the
    ``"network"`` random stream in exactly the order the pre-topology
    implementation did — one loss draw only when the profile is lossy, one
    jitter draw only when the profile has jitter — so existing campaigns
    reproduce bit-identically.  Duplication and reordering draw additional
    randomness only on links where they have been switched on.
    """

    def __init__(
        self,
        kernel: SimKernel,
        streams: RandomStreams,
        topology: "Topology | None" = None,
        default_profile: LinkProfile = LAN_TCP_PROFILE,
        ipc_profile: LinkProfile = IPC_PROFILE,
    ) -> None:
        # Function-level import: network.py defines LinkProfile, which
        # topology.py imports at module level, so the reverse import must
        # happen after this module is initialized.  Bound once here to
        # keep import machinery off the per-message hot path.
        from repro.sim.topology import Topology, host_of

        if topology is None:
            topology = Topology(ipc_profile=ipc_profile, default_profile=default_profile)
        self._host_of = host_of
        self._kernel = kernel
        # Every draw is the "network" stream's own C-level ``random()``.
        self._random = streams.stream("network").random
        self._topology = topology
        # Resolved routes per endpoint pair: host_of is a pure function of
        # the endpoint string and links are stable objects mutated in
        # place, so cached routes never go stale.  _partitions aliases the
        # topology's live partition list (a stable object, mutated in place
        # only) for the per-send fast path; see :meth:`send`.
        self._routes: dict[tuple[str, str], _Route] = {}
        self._partitions = topology._partitions
        self._post_at = kernel.post_at
        # ``tuple.__new__`` bound to the class builds the same tuple as the
        # generated ``__new__`` and as ``_make`` (both Python-level
        # functions on CPython), without their frame, at one message per
        # send.
        self._make_message = partial(tuple.__new__, NetworkMessage)
        self.messages_sent = 0
        #: Messages committed to delivery (loss, outage, and partition
        #: checks all passed).  Committed deliveries are uncancellable, so
        #: the count is final as soon as the message is queued; a run cut
        #: short by a time horizon may therefore count messages still in
        #: flight at the cutoff.
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_reordered = 0
        self.events: list[DeliveryEvent] = []
        self.mutations: list[NetworkMutation] = []

    @property
    def topology(self) -> "Topology":
        """The topology this engine routes over."""
        return self._topology

    def _record_mutation(self, label: str, description: str) -> None:
        self.mutations.append(
            NetworkMutation(time=self._kernel.now, label=label, description=description)
        )

    def record_event(
        self, kind: str, source: str, destination: str, detail: str = ""
    ) -> None:
        """Append one structured delivery event (also used by the environment)."""
        self.events.append(
            DeliveryEvent(
                kind=kind,
                source=source,
                destination=destination,
                time=self._kernel.now,
                detail=detail,
            )
        )

    # -- static configuration ----------------------------------------------------

    def set_link_profile(
        self,
        source: str,
        destination: str,
        profile: LinkProfile,
        symmetric: bool = False,
    ) -> None:
        """Pin the profile of one directed host-to-host link.

        Accepts bare host names or ``"host/process"`` endpoints (the
        pre-topology contract) — endpoints are normalized to their hosts,
        matching how :meth:`send` resolves links.
        """
        self._topology.set_profile(
            self._host_of(source), self._host_of(destination), profile, symmetric
        )

    def profile_for(self, source: str, destination: str) -> LinkProfile:
        """The profile currently governing messages between two endpoints."""
        host_of = self._host_of
        return self._topology.link(host_of(source), host_of(destination)).profile

    # -- runtime link mutation ----------------------------------------------------

    def partition(
        self, *groups: Iterable[str], duration: float | None = None, label: str = ""
    ) -> "Partition":
        """Cut traffic between host groups; auto-heal after ``duration`` if given.

        Returns the partition's identity token (see
        :meth:`~repro.sim.topology.Topology.remove_partition`).
        """
        token = self._topology.partition(groups)
        if duration is not None:
            self._kernel.schedule(duration, self._expire_partition, token, label)
        return token

    def _expire_partition(self, token: "Partition", label: str) -> None:
        if self._topology.remove_partition(token):
            self._record_mutation(label, "auto-heal partition")

    def heal_partitions(self) -> None:
        """Remove all active partitions (link states are left untouched)."""
        self._topology.clear_partitions()

    def heal(self) -> None:
        """Remove every partition and restore every link to pristine state."""
        self._topology.heal()

    def is_partitioned(self, source: str, destination: str) -> bool:
        """Whether traffic between the two endpoints is cut by a partition."""
        host_of = self._host_of
        return self._topology.is_partitioned(host_of(source), host_of(destination))

    def set_link_down(
        self,
        source_host: str,
        destination_host: str,
        symmetric: bool = True,
        duration: float | None = None,
        label: str = "",
    ) -> None:
        """Take a link down (both directions unless ``symmetric=False``).

        With ``duration``, the link comes back up automatically — unless a
        newer ``set_link_down`` re-armed the outage in the meantime (each
        expiry only undoes the mutation that scheduled it, so repeated
        ``always``-triggered faults extend the outage instead of having a
        stale timer cut the newest window short).
        """
        token = object()
        links = self._topology.links_for(source_host, destination_host, symmetric)
        for link in links:
            link.up = False
            link.down_token = token
        if duration is not None:
            self._kernel.schedule(duration, self._expire_link_down, links, token, label)

    def _expire_link_down(self, links: list[LinkState], token: object, label: str) -> None:
        restored: list[str] = []
        for link in links:
            if link.down_token is token:
                link.up = True
                link.down_token = None
                restored.append(link.name)
        if restored:
            self._record_mutation(label, f"auto link_up {', '.join(restored)}")

    def set_link_up(
        self, source_host: str, destination_host: str, symmetric: bool = True
    ) -> None:
        """Bring a link back up (also disarms any pending auto-undo)."""
        for link in self._topology.links_for(source_host, destination_host, symmetric):
            link.up = True
            link.down_token = None

    def degrade(
        self,
        source_host: str,
        destination_host: str,
        profile: LinkProfile,
        symmetric: bool = True,
        duration: float | None = None,
        label: str = "",
    ) -> None:
        """Replace a link's profile (restoring the previous one after ``duration``).

        Without ``duration`` the change is permanent (it becomes the new
        baseline a later timed degrade restores to).  With ``duration``
        the scheduled restore is token-guarded like :meth:`set_link_down`
        — only the newest timed degrade's expiry fires — and overlapping
        timed degrades restore the profile from *before* the chain
        started, so repeated ``always``-triggered faults extend the
        degradation window instead of making it permanent.
        """
        links = self._topology.links_for(source_host, destination_host, symmetric)
        if duration is None:
            for link in links:
                link.profile = profile
                link.profile_token = None
                link.restore_profile = None
            return
        token = object()
        for link in links:
            if link.profile_token is None:
                link.restore_profile = link.profile
            link.profile = profile
            link.profile_token = token
        self._kernel.schedule(duration, self._expire_degrade, links, token, label)

    def _expire_degrade(self, links: list[LinkState], token: object, label: str) -> None:
        restored: list[str] = []
        for link in links:
            if link.profile_token is token:
                link.profile = link.restore_profile
                link.profile_token = None
                link.restore_profile = None
                restored.append(link.name)
        if restored:
            self._record_mutation(label, f"auto profile restore {', '.join(restored)}")

    def set_loss(
        self,
        source_host: str,
        destination_host: str,
        probability: float,
        symmetric: bool = True,
    ) -> None:
        """Set the loss probability of a link (keeping its delay profile).

        Persists for the rest of the experiment (no auto-undo) and disarms
        any pending degrade restore so the new loss setting is not stomped.
        """
        for link in self._topology.links_for(source_host, destination_host, symmetric):
            link.profile = replace(link.profile, loss_probability=probability)
            link.profile_token = None
            link.restore_profile = None

    def set_duplicate(
        self,
        source_host: str,
        destination_host: str,
        probability: float,
        symmetric: bool = True,
    ) -> None:
        """Set the duplicate-delivery probability of a link."""
        for link in self._topology.links_for(source_host, destination_host, symmetric):
            link.duplicate_probability = probability

    def set_reorder(
        self,
        source_host: str,
        destination_host: str,
        probability: float,
        window: float,
        symmetric: bool = True,
    ) -> None:
        """Let messages on a link bypass FIFO with the given probability."""
        if window <= 0.0:
            raise RuntimeConfigurationError("reorder window must be positive")
        for link in self._topology.links_for(source_host, destination_host, symmetric):
            link.reorder_probability = probability
            link.reorder_window = window

    def apply(self, spec: "NetworkFaultSpec", label: str = "") -> None:
        """Apply one declarative network mutation (the fault-layer entry point).

        Called by the fault parser when a state-triggered network fault
        fires and by the kernel for scheduled network faults; every
        application is recorded on :attr:`mutations`.
        """
        from repro.sim.topology import NetworkFaultKind

        kind = spec.kind
        if kind is NetworkFaultKind.PARTITION:
            self.partition(*spec.groups, duration=spec.duration, label=label)
        elif kind is NetworkFaultKind.HEAL:
            self.heal()
        elif kind is NetworkFaultKind.LINK_DOWN:
            self.set_link_down(
                *spec.link, symmetric=spec.symmetric, duration=spec.duration, label=label
            )
        elif kind is NetworkFaultKind.LINK_UP:
            self.set_link_up(*spec.link, symmetric=spec.symmetric)
        elif kind is NetworkFaultKind.DEGRADE:
            self.degrade(
                *spec.link,
                profile=spec.profile,
                symmetric=spec.symmetric,
                duration=spec.duration,
                label=label,
            )
        elif kind is NetworkFaultKind.SET_LOSS:
            self.set_loss(*spec.link, probability=spec.probability, symmetric=spec.symmetric)
        elif kind is NetworkFaultKind.SET_DUPLICATE:
            self.set_duplicate(
                *spec.link, probability=spec.probability, symmetric=spec.symmetric
            )
        elif kind is NetworkFaultKind.SET_REORDER:
            self.set_reorder(
                *spec.link,
                probability=spec.probability,
                window=spec.window,
                symmetric=spec.symmetric,
            )
        else:  # pragma: no cover - exhaustive over the enum
            raise RuntimeConfigurationError(f"unknown network fault kind {kind!r}")
        self._record_mutation(label, spec.to_token())

    # -- delivery ------------------------------------------------------------------

    def send(
        self,
        source: str,
        destination: str,
        payload: Any,
        deliver: Callable[[NetworkMessage], None],
    ) -> NetworkMessage:
        """Send ``payload`` from ``source`` to ``destination``.

        ``deliver`` is invoked with the :class:`NetworkMessage` after the
        sampled link delay, unless the message is lost or its link is cut.
        Returns the in-flight message object.
        """
        now = self._kernel._now  # .now is a Python-level property; this path is hot
        message = self._make_message((source, destination, payload, now))
        self.messages_sent += 1
        pair = (source, destination)
        route = self._routes.get(pair)
        if route is None:
            source_host = self._host_of(source)
            destination_host = self._host_of(destination)
            route = _Route(
                self._topology.link(source_host, destination_host),
                source_host,
                destination_host,
            )
            self._routes[pair] = route
        link = route.link
        if not link.up or self._partitions:
            blocked = self._topology.blocked_reason(
                route.source_host, route.destination_host, link
            )
            if blocked is not None:
                self.messages_dropped += 1
                self.record_event(blocked, source, destination, detail=link.name)
                return message
        # Each draw below consumes the "network" stream's next uniform
        # variate, conditionally and in a fixed order (loss, jitter,
        # reorder check, reorder offset, duplicate check, duplicate
        # jitter) — the delay and offset math replicates
        # expovariate/uniform operation by operation (see
        # LinkProfile.sample_delay), so the outcomes are the ones
        # ``Random.expovariate``/``uniform`` calls at these points would
        # give (pinned by ``tests/data/network_batched_golden.json``).
        profile = link.profile
        random = self._random
        if profile.loss_probability > 0 and random() < profile.loss_probability:
            self.messages_dropped += 1
            self.record_event("lost", source, destination, detail=link.name)
            return message
        jitter_mean = profile.jitter_mean
        if jitter_mean > 0:
            delay = profile.base_delay + -log(1.0 - random()) / (1.0 / jitter_mean)
        else:
            delay = profile.base_delay
        # TCP (and the shared-memory IPC queue) deliver in order per
        # connection: a message must not overtake an earlier one on the
        # same directed endpoint pair, however the jitter draws land.  The
        # kernel breaks equal-time ties by insertion order, so clamping to
        # the pair's arrival floor preserves FIFO exactly.  A reordering
        # link deliberately breaks that guarantee: the reordered message
        # skips the floor (and leaves it untouched) so later messages can
        # overtake it.
        if link.reorder_probability > 0 and random() < link.reorder_probability:
            arrival = now + delay + (0.0 + (link.reorder_window - 0.0) * random())
            self.messages_reordered += 1
            self.record_event("reordered", source, destination, detail=link.name)
        else:
            arrival = now + delay
            floor = route.floor
            if floor > arrival:
                arrival = floor
            route.floor = arrival
        # A posted event can never be cancelled, so delivery is committed
        # the moment it is queued — the counter is incremented here and the
        # event invokes ``deliver`` directly, with no per-message
        # bookkeeping trampoline between the kernel and the receiver.
        self.messages_delivered += 1
        self._post_at(arrival, deliver, message)
        if link.duplicate_probability > 0 and random() < link.duplicate_probability:
            if jitter_mean > 0:
                duplicate_delay = (
                    profile.base_delay + -log(1.0 - random()) / (1.0 / jitter_mean)
                )
            else:
                duplicate_delay = profile.base_delay
            duplicate_arrival = max(now + duplicate_delay, route.floor)
            route.floor = duplicate_arrival
            self.messages_duplicated += 1
            self.messages_delivered += 1
            self.record_event("duplicated", source, destination, detail=link.name)
            self._post_at(duplicate_arrival, deliver, message)
        return message

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"NetworkModel(sent={self.messages_sent}, delivered={self.messages_delivered}, "
            f"dropped={self.messages_dropped}, duplicated={self.messages_duplicated}, "
            f"reordered={self.messages_reordered})"
        )
