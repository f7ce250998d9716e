"""Reproduction of *Loki: A State-Driven Fault Injector for Distributed Systems*.

The library is organized around the paper's three phases:

* :mod:`repro.core` — the Loki runtime (specifications, state machines,
  fault parser, probe, recorder, daemons, transports) and campaign
  orchestration, executed on the simulated substrate in :mod:`repro.sim`;
* :mod:`repro.analysis` — offline clock synchronization, global-timeline
  construction, and conservative injection verification;
* :mod:`repro.measures` — the predicate / observation-function / subset
  measure language and the simple-sampling / stratified campaign
  estimators.

:mod:`repro.pipeline` ties the phases together; :mod:`repro.store`
persists campaigns on disk (append-only experiment records plus a
fingerprinted manifest) so runs are resumable and re-analyzable without
re-simulation; :mod:`repro.apps` contains the instrumented example
applications (leader election, the Figure 3.2/3.3 toggle workload,
primary-backup replication, two-phase commit, and token-ring mutual
exclusion); and :mod:`repro.scenarios` registers every application as a
named, parameterized scenario that the execution engine, examples, and
benchmarks enumerate.

See ``docs/architecture.md`` for a guided tour mapping each module to the
paper's sections and tracing the data flow end to end.
"""

from repro.core.campaign import (
    CampaignConfig,
    CampaignResult,
    CampaignRunner,
    ExperimentResult,
    HostConfig,
    StudyConfig,
    StudyResult,
    run_campaign,
    run_single_study,
)
from repro.core.execution import (
    ExecutionConfig,
    SerialExecutor,
    available_backends,
    build_executor,
    run_and_analyze_experiment,
)
from repro.core.runtime.context import NodeDefinition, RestartPolicy, WatchdogConfig
from repro.core.runtime.designs import CommunicationMode, DaemonPlacement, RuntimeDesign
from repro.dist import ParallelExecutor
from repro.pipeline import (
    AnalyzedExperiment,
    CampaignAnalysis,
    StudyAnalysis,
    analyze_campaign,
    analyze_experiment,
    analyze_study,
    correct_injection_fraction,
    run_and_analyze,
)
from repro.scenarios import (
    DEFAULT_REGISTRY,
    Scenario,
    ScenarioRegistry,
    build_default_registry,
    default_registry,
)
from repro.store import CampaignStore

__version__ = "1.0.0"

__all__ = [
    "AnalyzedExperiment",
    "CampaignAnalysis",
    "CampaignConfig",
    "CampaignResult",
    "CampaignRunner",
    "CampaignStore",
    "CommunicationMode",
    "DEFAULT_REGISTRY",
    "DaemonPlacement",
    "ExecutionConfig",
    "ExperimentResult",
    "HostConfig",
    "NodeDefinition",
    "ParallelExecutor",
    "RestartPolicy",
    "RuntimeDesign",
    "Scenario",
    "ScenarioRegistry",
    "SerialExecutor",
    "StudyAnalysis",
    "StudyConfig",
    "StudyResult",
    "WatchdogConfig",
    "analyze_campaign",
    "analyze_experiment",
    "analyze_study",
    "available_backends",
    "build_default_registry",
    "build_executor",
    "correct_injection_fraction",
    "default_registry",
    "run_and_analyze",
    "run_and_analyze_experiment",
    "run_campaign",
    "run_single_study",
    "__version__",
]
