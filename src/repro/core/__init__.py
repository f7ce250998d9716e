"""The Loki fault injector core.

This package contains the paper's primary contribution: the specification
objects (state-machine specifications built as Python objects, fault
specifications with their text format), the runtime components attached
to every node (state machine, state-machine transport, fault parser,
recorder, probe), the daemon-based runtime architectures of Chapter 3, and
the campaign/study/experiment orchestration of Chapter 2.
"""

from repro.core.expression import And, Expression, Not, Or, StateAtom, parse_expression
from repro.core.faults import FaultParser, InjectionRequest
from repro.core.probe import CallbackProbe, Probe
from repro.core.recorder import Recorder
from repro.core.specs import (
    FaultDefinition,
    FaultSpecification,
    FaultTrigger,
    StateMachineSpecification,
    StateSpecification,
    format_fault_specification,
    parse_fault_specification,
)
from repro.core.statemachine import StateMachine
from repro.core.timeline import (
    LocalTimeline,
    RecordKind,
    TimelineRecord,
    format_local_timeline,
    parse_local_timeline,
)

__all__ = [
    "And",
    "CallbackProbe",
    "Expression",
    "FaultDefinition",
    "FaultParser",
    "FaultSpecification",
    "FaultTrigger",
    "InjectionRequest",
    "LocalTimeline",
    "Not",
    "Or",
    "Probe",
    "Recorder",
    "RecordKind",
    "StateAtom",
    "StateMachine",
    "StateMachineSpecification",
    "StateSpecification",
    "TimelineRecord",
    "format_fault_specification",
    "format_local_timeline",
    "parse_expression",
    "parse_fault_specification",
    "parse_local_timeline",
]
