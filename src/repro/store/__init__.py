"""Persistent campaign store: run the simulator once, analyze forever.

The paper's evaluation pipeline explicitly decouples the runtime phase
from the offline analysis phase.  :mod:`repro.store` gives that decoupling
a durable form: an append-only, per-study JSONL record store under a
campaign directory, with a manifest carrying configuration fingerprints,
seeds, and the producing git commit.

* :class:`CampaignStore` — the store itself: streaming writes from the
  execution engine, resumable reads, and zero-simulation re-analysis
  (:meth:`~CampaignStore.load_results` / :meth:`~CampaignStore.load_analysis`).
* :mod:`repro.store.format` — bit-exact JSON record encoding with
  per-record checksums (torn writes are detected and treated as absent).
* :mod:`repro.store.columnar` — the columnar record codec: checksummed
  numpy structured-array blocks behind the same record
  interface, read transparently alongside JSONL stores.
* :mod:`repro.store.manifest` — study configuration fingerprints and the
  campaign manifest with its compatibility checks.

Typical use::

    from repro import CampaignStore, run_and_analyze

    store = CampaignStore("runs/demo")
    analysis = run_and_analyze(campaign, store=store)   # records as it runs
    ...                                                 # (crash, reboot, ...)
    analysis = run_and_analyze(campaign, store=store)   # resumes: only the
                                                        # missing experiments run
    later = store.load_analysis()                       # re-analysis, zero
                                                        # simulator invocations
"""

from repro.store.campaign_store import CampaignStore, StoredStudyConfig, StoreReport
from repro.store.columnar import (
    COLUMNAR_FORMAT_VERSION,
    READABLE_COLUMNAR_VERSIONS,
    ColumnarScan,
    decode_block,
    encode_block,
    scan_blocks,
)
from repro.store.format import (
    RECORD_FORMAT_VERSION,
    decode_record,
    encode_record,
    result_from_dict,
    result_to_dict,
    timeline_from_dict,
    timeline_to_dict,
)
from repro.store.manifest import (
    MANIFEST_FORMAT_VERSION,
    Manifest,
    StudyManifest,
    expected_seeds,
    study_description,
    study_fingerprint,
)

__all__ = [
    "COLUMNAR_FORMAT_VERSION",
    "CampaignStore",
    "ColumnarScan",
    "MANIFEST_FORMAT_VERSION",
    "Manifest",
    "READABLE_COLUMNAR_VERSIONS",
    "RECORD_FORMAT_VERSION",
    "StoreReport",
    "StoredStudyConfig",
    "StudyManifest",
    "decode_block",
    "decode_record",
    "encode_block",
    "encode_record",
    "expected_seeds",
    "result_from_dict",
    "result_to_dict",
    "scan_blocks",
    "study_description",
    "study_fingerprint",
    "timeline_from_dict",
    "timeline_to_dict",
]
