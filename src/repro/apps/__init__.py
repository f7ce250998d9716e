"""Instrumented test applications (the systems under study).

Five applications exercise the public API on realistic scenarios:

* :mod:`repro.apps.election` — the leader-election protocol of Chapter 5,
  used for the coverage and error-correlation evaluations;
* :mod:`repro.apps.toggle` — the two-node application used for the runtime
  performance analysis of Figures 3.2 and 3.3 (correct-injection
  probability as a function of the time spent in a state);
* :mod:`repro.apps.replication` — a primary-backup replication service with
  global-state-driven faults (crash the primary while a backup is
  synchronizing);
* :mod:`repro.apps.twophase` — a two-phase-commit service whose faults
  target the in-doubt window (coordinator crash while a participant has
  voted and waits for the decision);
* :mod:`repro.apps.tokenring` — token-ring mutual exclusion with token-loss
  and holder-crash faults.

The *protocol suite* adds four real-protocol workloads whose timelines
carry structured :mod:`repro.apps.protocol_notes` for the machine-checkable
safety invariants of ``tests/protocol``:

* :mod:`repro.apps.raft` — Raft-style term-based election with log
  replication (election safety, committed-prefix agreement);
* :mod:`repro.apps.quorum` — a quorum read/write register with read-repair
  (quorum-intersection reads are never stale);
* :mod:`repro.apps.swim` — the SWIM gossip failure detector
  (confirmed-dead members really crashed);
* :mod:`repro.apps.dfsmaster` — a DFS master/replica workload with
  heartbeats, re-replication, and digest audits (store consistency).

Every application is registered as a scenario in
:mod:`repro.scenarios`, which is the preferred way to enumerate and build
them.
"""

from repro.apps.dfsmaster import (
    DfsDatanodeApplication,
    DfsMasterApplication,
    build_dfs_study,
    dfs_datanode_spec,
    dfs_master_spec,
)
from repro.apps.election import (
    LeaderElectionApplication,
    build_election_study,
    election_state_machine_spec,
)
from repro.apps.protocol_notes import (
    ProtocolNote,
    notes_of_kind,
    parse_protocol_note,
    protocol_note,
)
from repro.apps.quorum import (
    QuorumClientApplication,
    QuorumReplicaApplication,
    build_quorum_study,
    quorum_client_spec,
    quorum_replica_spec,
)
from repro.apps.raft import (
    RaftReplicaApplication,
    build_raft_study,
    raft_state_machine_spec,
)
from repro.apps.replication import (
    ReplicationApplication,
    build_replication_study,
    replication_state_machine_spec,
)
from repro.apps.swim import (
    SwimMemberApplication,
    build_swim_study,
    swim_state_machine_spec,
)
from repro.apps.toggle import (
    ToggleDriverApplication,
    ToggleObserverApplication,
    build_toggle_study,
    driver_state_machine_spec,
    observer_state_machine_spec,
)
from repro.apps.tokenring import (
    TokenRingApplication,
    build_tokenring_study,
    ring_state_machine_spec,
)
from repro.apps.twophase import (
    TwoPhaseCommitApplication,
    build_twophase_study,
    coordinator_state_machine_spec,
    participant_state_machine_spec,
)

__all__ = [
    "DfsDatanodeApplication",
    "DfsMasterApplication",
    "LeaderElectionApplication",
    "ProtocolNote",
    "QuorumClientApplication",
    "QuorumReplicaApplication",
    "RaftReplicaApplication",
    "ReplicationApplication",
    "SwimMemberApplication",
    "ToggleDriverApplication",
    "ToggleObserverApplication",
    "TokenRingApplication",
    "TwoPhaseCommitApplication",
    "build_dfs_study",
    "build_election_study",
    "build_quorum_study",
    "build_raft_study",
    "build_replication_study",
    "build_swim_study",
    "build_toggle_study",
    "build_tokenring_study",
    "build_twophase_study",
    "coordinator_state_machine_spec",
    "dfs_datanode_spec",
    "dfs_master_spec",
    "driver_state_machine_spec",
    "election_state_machine_spec",
    "notes_of_kind",
    "observer_state_machine_spec",
    "parse_protocol_note",
    "participant_state_machine_spec",
    "protocol_note",
    "quorum_client_spec",
    "quorum_replica_spec",
    "raft_state_machine_spec",
    "replication_state_machine_spec",
    "ring_state_machine_spec",
    "swim_state_machine_spec",
]
