"""Campaign manifests: what a store's records were produced by.

The manifest is the store's table of contents and its tamper check.  It
records, per study, everything needed to decide whether an existing record
can be reused by a resumed run: the study's name, master seed, experiment
count, host list, and a *configuration fingerprint* — a SHA-256 digest over
a canonical description of the study's declarative surface (hosts and their
clock/scheduler parameters, node definitions with their fault
specifications and state-machine structure, runtime design, timeouts,
sync-phase parameters, link profiles).  Two studies with the same
fingerprint produce the same experiments for the same seeds; a fingerprint
mismatch on attach means the configuration changed since the records were
written, and resuming would silently mix incompatible data.

What the fingerprint deliberately does **not** capture is Python code:
application factories are arbitrary callables (often closures) with no
stable serialization.  Editing an application's *behavior* without touching
any declarative parameter therefore does not change the fingerprint — the
store trusts that a study name plus its declarative description identifies
the workload, exactly as the scenario registry does.  Use a fresh campaign
directory when application code changes.

The manifest also stamps the producing commit (``git_sha``) so an archived
campaign directory can always be traced back to the code that wrote it.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.campaign import CampaignConfig, StudyConfig
from repro.errors import StoreIntegrityError
from repro.sim.topology import NetworkConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.runtime.context import NodeDefinition

#: Version stamp of the manifest schema.
MANIFEST_FORMAT_VERSION = 1


def repository_sha(start: Path | None = None) -> str:
    """The short commit hash of the enclosing git checkout, or ``"unknown"``."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=start or Path.cwd(),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - no git
        return "unknown"
    if output.returncode != 0:
        return "unknown"
    return output.stdout.strip()


# ---------------------------------------------------------------------------
# Study fingerprints
# ---------------------------------------------------------------------------


def _node_description(node: "NodeDefinition") -> dict[str, Any]:
    specification = node.specification
    return {
        "nickname": node.nickname,
        "start_host": node.start_host,
        "arguments": list(node.arguments),
        "faults": list(node.faults.describe()),
        # The state machine's structure: machine list, states, events, and
        # the transition table — repr of frozen dataclasses is stable.
        "specification": repr(specification),
    }


def study_description(study: StudyConfig) -> dict[str, Any]:
    """The canonical declarative description a study's fingerprint hashes.

    Everything here is either a primitive or the ``repr`` of a frozen
    dataclass of primitives, so the encoding is stable across processes and
    Python sessions.  Application factories are excluded by design (see the
    module docstring).  The *experiment count* and the study *weight* are
    excluded too: neither affects what the runtime phase produces — the
    count is a sampling size (growing a study from 100 to 1000 experiments
    must be able to reuse the 100 archived records; each experiment's seed
    depends only on the study seed and its index), and the weight only
    feeds measure-phase estimators (re-weighting an archived campaign is
    exactly the kind of re-analysis the store exists to make free).
    """
    description = {
        "name": study.name,
        "seed": study.seed,
        "experiment_timeout": study.experiment_timeout,
        "max_events": study.max_events,
        "design": repr(study.design),
        "restart_policy": repr(study.restart_policy),
        "watchdog": repr(study.watchdog),
        # The text ``repr(study.sync)`` had while the config also carried
        # a ``dedicated_receiver`` flag, always true, so archives written
        # then stay resumable.
        "sync": repr(study.sync)[:-1] + ", dedicated_receiver=True)",
        "default_scheduler": repr(study.default_scheduler),
        "clock_generation": repr(study.clock_generation),
        "ipc_profile": repr(study.ipc_profile),
        "lan_profile": repr(study.lan_profile),
        "hosts": [
            [host.name, repr(host.clock), repr(host.scheduler)]
            for host in study.hosts
        ],
        "nodes": [_node_description(node) for node in study.nodes],
    }
    # The network model: link-profile overrides and the scheduled
    # network-fault timeline.  (State-triggered network faults are already
    # covered through each node's fault lines.)  The key is omitted for
    # the no-op default so studies that never touch the network model keep
    # their pre-topology fingerprints — archives written before the
    # topology layer stay resumable — while any real network configuration
    # invalidates them.
    if study.network != NetworkConfig():
        description["network"] = repr(study.network)
    return description


def study_fingerprint(study: StudyConfig) -> str:
    """SHA-256 digest of the study's canonical declarative description."""
    canonical = json.dumps(study_description(study), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The manifest itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyManifest:
    """One study's entry in the campaign manifest."""

    name: str
    seed: int
    experiments: int
    fingerprint: str
    hosts: tuple[str, ...]

    @classmethod
    def of(cls, study: StudyConfig) -> "StudyManifest":
        """Build the manifest entry for a study configuration."""
        return cls(
            name=study.name,
            seed=study.seed,
            experiments=study.experiments,
            fingerprint=study_fingerprint(study),
            hosts=study.host_names,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "experiments": self.experiments,
            "fingerprint": self.fingerprint,
            "hosts": list(self.hosts),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StudyManifest":
        return cls(
            name=data["name"],
            seed=data["seed"],
            experiments=data["experiments"],
            fingerprint=data["fingerprint"],
            hosts=tuple(data["hosts"]),
        )


@dataclass
class Manifest:
    """The manifest of one campaign directory.

    ``codec`` names the codec the store's *writer* currently uses
    (``"jsonl"`` or ``"columnar"``).  It is informational — readers are
    codec-transparent — and optional in the serialized form (absent means
    ``"jsonl"``), so manifests written before the columnar codec existed
    parse unchanged and old readers simply ignore the key: no
    ``format_version`` bump.
    """

    campaign: str
    git_sha: str = "unknown"
    format_version: int = MANIFEST_FORMAT_VERSION
    codec: str = "jsonl"
    studies: dict[str, StudyManifest] = field(default_factory=dict)

    @classmethod
    def of(
        cls,
        campaign: CampaignConfig,
        git_sha: str | None = None,
        codec: str = "jsonl",
    ) -> "Manifest":
        """Build a manifest describing ``campaign``."""
        return cls(
            campaign=campaign.name,
            git_sha=repository_sha() if git_sha is None else git_sha,
            codec=codec,
            studies={study.name: StudyManifest.of(study) for study in campaign.studies},
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "campaign": self.campaign,
            "git_sha": self.git_sha,
            "format_version": self.format_version,
            "codec": self.codec,
            "studies": {name: entry.to_dict() for name, entry in self.studies.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Manifest":
        if data.get("format_version") != MANIFEST_FORMAT_VERSION:
            raise StoreIntegrityError(
                f"unsupported manifest format {data.get('format_version')!r} "
                f"(this reader understands {MANIFEST_FORMAT_VERSION})"
            )
        return cls(
            campaign=data["campaign"],
            git_sha=data.get("git_sha", "unknown"),
            format_version=data["format_version"],
            codec=data.get("codec", "jsonl"),
            studies={
                name: StudyManifest.from_dict(entry)
                for name, entry in data["studies"].items()
            },
        )

    # -- compatibility checks ----------------------------------------------------

    def check_compatible(self, campaign: CampaignConfig) -> None:
        """Verify that ``campaign`` can resume from this manifest's records.

        Raises :class:`~repro.errors.StoreIntegrityError` when the campaign
        name differs or when a study present in both carries a different
        configuration fingerprint.  Studies new to the campaign are fine
        (they simply have no records yet); studies present only in the
        manifest are fine too (their records are ignored by the resume).
        """
        if campaign.name != self.campaign:
            raise StoreIntegrityError(
                f"store belongs to campaign {self.campaign!r}, "
                f"not {campaign.name!r}; use a fresh directory"
            )
        for study in campaign.studies:
            existing = self.studies.get(study.name)
            if existing is None:
                continue
            fingerprint = study_fingerprint(study)
            if fingerprint != existing.fingerprint:
                raise StoreIntegrityError(
                    f"study {study.name!r} no longer matches the stored "
                    f"configuration (fingerprint {fingerprint[:12]} vs stored "
                    f"{existing.fingerprint[:12]}); its records were produced "
                    "by a different configuration — use a fresh directory"
                )
            if existing.seed != study.seed:  # pragma: no cover - covered by fingerprint
                raise StoreIntegrityError(
                    f"study {study.name!r} seed changed ({study.seed} vs stored "
                    f"{existing.seed}); use a fresh directory"
                )

    def merged_with(self, campaign: CampaignConfig) -> "Manifest":
        """A manifest covering ``campaign``'s studies plus any recorded before.

        Entries for the campaign's studies are rebuilt (refreshing e.g. a
        grown experiment count — compatibility was already checked);
        entries only the manifest knows are kept, so attaching a narrower
        campaign never forgets the records of the wider one.
        """
        merged = dict(self.studies)
        for study in campaign.studies:
            merged[study.name] = StudyManifest.of(study)
        return Manifest(
            campaign=self.campaign,
            git_sha=self.git_sha,
            format_version=self.format_version,
            codec=self.codec,
            studies=merged,
        )


def expected_seeds(study: StudyConfig) -> Mapping[int, int]:
    """The seed every experiment of ``study`` must carry, by index.

    Delegates to the execution engine's seed-derivation contract
    (:meth:`~repro.core.campaign.CampaignRunner._experiment_seed`, pinned by
    the golden-seed tests), which is what makes a stored record verifiable
    without re-running anything.
    """
    from repro.core.campaign import CampaignRunner

    return {
        index: CampaignRunner._experiment_seed(study, index)
        for index in range(study.experiments)
    }
