"""Simulated distributed-system substrate.

The original Loki runtime was a C++ library running on real Linux hosts
connected by a LAN.  This package provides the equivalent substrate as a
deterministic discrete-event simulation so that the runtime phase, the
offline analysis phase, and the paper's performance figures can all be
reproduced on a laptop with a fixed seed.

The substrate models exactly the aspects of a real deployment that the
paper's evaluation depends on:

* per-host hardware clocks with offset and drift (the linear clock model of
  Section 2.5),
* an operating-system scheduler with a configurable timeslice and context
  switch cost (the dominant source of notification latency in Figures 3.2
  and 3.3),
* a topology-aware LAN with distinct delay profiles for intra-host IPC
  (shared memory) and inter-host TCP/IP messages (Section 3.4's 20 us vs
  150 us comparison), whose per-link state can be mutated mid-experiment —
  partitions, one-way outages, degradation, loss, duplication, reordering
  (:mod:`repro.sim.topology`).

Public entry points:

* :class:`~repro.sim.kernel.SimKernel` — the event queue and virtual time.
* :class:`~repro.sim.environment.Environment` — a facade that wires hosts,
  processes, the network, and the kernel together.
"""

from repro.sim.clock import ClockParameters, HardwareClock
from repro.sim.environment import Environment
from repro.sim.host import Host, SchedulerConfig
from repro.sim.kernel import EventHandle, SimKernel
from repro.sim.network import (
    IPC_PROFILE,
    LAN_TCP_PROFILE,
    DeliveryEvent,
    LinkProfile,
    NetworkMessage,
    NetworkModel,
)
from repro.sim.process import SimProcess
from repro.sim.rng import RandomStreams
from repro.sim.topology import (
    LinkState,
    NetworkConfig,
    NetworkFaultKind,
    NetworkFaultSpec,
    ScheduledNetworkFault,
    Topology,
)

__all__ = [
    "ClockParameters",
    "DeliveryEvent",
    "Environment",
    "EventHandle",
    "HardwareClock",
    "Host",
    "IPC_PROFILE",
    "LAN_TCP_PROFILE",
    "LinkProfile",
    "LinkState",
    "NetworkConfig",
    "NetworkFaultKind",
    "NetworkFaultSpec",
    "NetworkMessage",
    "NetworkModel",
    "RandomStreams",
    "ScheduledNetworkFault",
    "SchedulerConfig",
    "SimKernel",
    "SimProcess",
    "Topology",
]
