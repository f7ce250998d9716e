"""Specification objects for the Loki inputs (Chapter 3).

The paper drives Loki from a family of text files.  This reproduction
builds every study as Python objects, and keeps a text format only where a
caller reads one:

* the *state machine specification* — one per state machine — describing
  states, events, transitions, and per-state notify lists (built with
  :func:`~repro.core.specs.state_machine.build_specification`);
* the *fault specification* — Boolean fault expressions with once/always
  triggers — with a parser and formatter for the paper's textual format.

The local-timeline text format lives in :mod:`repro.core.timeline`.
"""

from repro.core.specs.fault_spec import (
    FaultDefinition,
    FaultSpecification,
    FaultTrigger,
    format_fault_specification,
    parse_fault_specification,
)
from repro.core.specs.state_machine import (
    RESERVED_EVENTS,
    RESERVED_STATES,
    StateMachineSpecification,
    StateSpecification,
)

__all__ = [
    "FaultDefinition",
    "FaultSpecification",
    "FaultTrigger",
    "RESERVED_EVENTS",
    "RESERVED_STATES",
    "StateMachineSpecification",
    "StateSpecification",
    "format_fault_specification",
    "parse_fault_specification",
]
