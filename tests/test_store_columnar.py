"""Tests of the columnar record codec: blocks, healing, codec transparency.

The columnar codec must be indistinguishable from the JSONL codec at every
observable level: a payload round-trips bit-exactly through a block, a
store written columnar resumes and re-analyzes bit-identically to one
written JSONL, and a reader handed a directory holding both codecs' files
merges them transparently.  The round-trip properties run twice, mirroring
``test_store``: against a deterministic seeded table (always), and against
hypothesis-generated payloads when hypothesis is installed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.clock_sync import SyncMessageRecord, SyncTable, envelope_rows
from repro.core.campaign import CampaignRunner
from repro.errors import StoreError, StoreIntegrityError
from repro.pipeline import run_and_analyze
from repro.store import (
    COLUMNAR_FORMAT_VERSION,
    READABLE_COLUMNAR_VERSIONS,
    CampaignStore,
    decode_block,
    encode_block,
    result_to_dict,
    scan_blocks,
)
from repro.store.columnar import MAGIC_LINE, RECORD_DTYPE_FIELDS, SYNC_DTYPE_FIELDS

from test_store import build_campaign, campaign_measures_of, synthetic_result

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ModuleNotFoundError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False


#: ``sha256(encode_block(synthetic_result(seed, extra_times=[0.25 * i for i
#: in range(extra)])))`` keyed by ``(seed, extra)``: 4, 37 and 523 record rows.
BLOCK_PINS = {
    (3, 0): "627ba263e8eb26de7d375e71a78d13e7e635cc34516333ea30377d4dde725fba",
    (7, 16): "4df4696fd7ac5926fa0665717d28adea470830ae68e2ad8bbd54ca7251e7ef3b",
    (11, 256): "ecb85c698e9761ae2e53242766a7576c11fa67b3e1d2cdea5550ee5671ab3db0",
}


def check_block_roundtrip(result) -> None:
    block = encode_block(result)
    header_line, _, rest = block.partition(b"\n")
    decoded = decode_block(json.loads(header_line), rest[:-1])
    # Canonical-dictionary equality is bit-exact float equality.
    assert result_to_dict(decoded) == result_to_dict(result)
    assert decoded.seed == result.seed
    for machine, timeline in result.local_timelines.items():
        other = decoded.local_timelines[machine]
        assert other.records == timeline.records
        assert other.faults == timeline.faults
        assert other.notes == timeline.notes
    assert decoded.sync_messages == result.sync_messages
    assert decoded.host_clock_parameters == result.host_clock_parameters


def file_of(*blocks: bytes) -> bytes:
    return MAGIC_LINE + b"".join(blocks)


# ---------------------------------------------------------------------------
# Block round trips
# ---------------------------------------------------------------------------


class TestColumnarBlocks:
    def test_seeded_roundtrips(self):
        for seed in range(40):
            check_block_roundtrip(synthetic_result(seed))

    def test_extreme_floats_roundtrip(self):
        # Raw IEEE-754 doubles in the tables, repr floats in the meta line:
        # both sides must preserve these bit patterns exactly.
        extremes = [
            1e-308,          # subnormal territory
            5e-324,          # smallest positive subnormal
            1e308,
            math.inf,
            -math.inf,
            -0.0,
            2.0**-52,
            0.1 + 0.2,
            math.pi,
        ]
        result = synthetic_result(1, extra_times=extremes)
        check_block_roundtrip(result)
        # -0.0 specifically: equality would not catch a sign-bit loss.
        decoded = decode_block(*split_block(encode_block(result)))
        times = [
            record.time
            for timeline in decoded.local_timelines.values()
            for record in timeline.records
        ]
        assert any(time == 0.0 and math.copysign(1.0, time) < 0 for time in times)

    def test_empty_tables_roundtrip(self):
        # A result can legitimately carry empty timelines (zero records)
        # and no sync messages; zero-row arrays must frame cleanly.
        result = synthetic_result(2)
        for timeline in result.local_timelines.values():
            timeline.records.clear()
        result.sync_messages.clear()
        check_block_roundtrip(result)

    def test_real_experiment_roundtrips(self):
        from repro.apps.toggle import build_toggle_study

        study = build_toggle_study(
            "rt", dwell_time=0.02, timeslice=0.002, cycles=3, experiments=1, seed=9
        )
        check_block_roundtrip(CampaignRunner.run_experiment_of(study, 0))

    def test_matches_jsonl_codec_bit_exactly(self):
        from repro.store import decode_record, encode_record

        for seed in range(10):
            result = synthetic_result(seed)
            via_jsonl = result_to_dict(decode_record(encode_record(result)))
            via_columnar = result_to_dict(decode_block(*split_block(encode_block(result))))
            assert via_jsonl == via_columnar

    def test_block_bytes_are_pinned(self):
        # Recorded at the last commit that still had the column-list
        # interchange and the engine table: the on-disk bytes (header,
        # meta line, pool order, raw arrays) are a format, and a rewrite
        # of the encoder must reproduce them exactly.
        for (seed, extra), pinned in BLOCK_PINS.items():
            result = synthetic_result(
                seed, extra_times=[0.25 * step for step in range(extra)]
            )
            assert hashlib.sha256(encode_block(result)).hexdigest() == pinned

    def test_foreign_engine_block_is_corrupt(self, tmp_path):
        # "numpy" is the only engine this reader has ever been able to
        # run; a block naming another one is rejected, not guessed at.
        header, payload = split_block(encode_block(synthetic_result(3)))
        header["engine"] = "arrow"
        with pytest.raises(StoreIntegrityError, match="unknown columnar engine"):
            decode_block(header, payload)
        foreign = frame(header, payload)
        intact = encode_block(synthetic_result(4))
        # Framing and checksum hold, so the scan skips it and carries on.
        scan = scan_blocks(file_of(foreign, intact))
        assert scan.valid == 1 and scan.corrupt == 1
        assert scan.valid_end == len(file_of(foreign, intact))

        campaign = build_campaign(experiments=2)
        store = CampaignStore(tmp_path / "c", codec="columnar")
        with store:
            run_and_analyze(campaign, store=store)
        path = store.columnar_path("alpha")
        path.write_bytes(path.read_bytes() + foreign)
        report = store.verify()["alpha"]
        assert (report.valid, report.corrupt, report.superseded) == (2, 1, 0)
        assert sorted(store.load_study_records("alpha")) == [0, 1]

    def test_unknown_format_version_detected(self):
        block = encode_block(synthetic_result(4))
        header, payload = split_block(block)
        header["format"] = COLUMNAR_FORMAT_VERSION + 1
        assert header["format"] not in READABLE_COLUMNAR_VERSIONS
        with pytest.raises(StoreIntegrityError, match="columnar format"):
            decode_block(header, payload)

    def test_body_length_mismatch_detected(self):
        header, payload = split_block(encode_block(synthetic_result(5)))
        with pytest.raises(StoreIntegrityError):
            decode_block(header, payload + b"\x00" * 8)

    if HAVE_HYPOTHESIS:

        @given(
            seed=st.integers(min_value=0, max_value=2**32 - 1),
            extra_times=st.lists(
                st.floats(allow_nan=False, width=64), max_size=6
            ),
        )
        @settings(max_examples=60, deadline=None)
        def test_hypothesis_roundtrips(self, seed, extra_times):
            check_block_roundtrip(synthetic_result(seed, extra_times=extra_times))


def split_block(block: bytes) -> tuple[dict, bytes]:
    header_line, _, rest = block.partition(b"\n")
    return json.loads(header_line), rest[:-1]


def frame(header: dict, payload: bytes) -> bytes:
    """Re-frame ``payload`` as a block whose length and SHA-256 are valid."""
    header = dict(header, length=len(payload), sha256=hashlib.sha256(payload).hexdigest())
    header_line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return header_line.encode("utf-8") + b"\n" + payload + b"\n"


def with_code(block: bytes, table: str, column: str, code_of_pool_size) -> bytes:
    """``block`` with the first ``column`` code of ``table`` replaced, checksum valid."""
    header, payload = split_block(block)
    meta_line, _, body = payload.partition(b"\n")
    meta = json.loads(meta_line)
    split = sum(
        timeline["record_count"] for timeline in meta["local_timelines"].values()
    ) * np.dtype(RECORD_DTYPE_FIELDS).itemsize
    tables = {
        "records": np.frombuffer(body[:split], dtype=RECORD_DTYPE_FIELDS).copy(),
        "sync": np.frombuffer(body[split:], dtype=SYNC_DTYPE_FIELDS).copy(),
    }
    tables[table][column][0] = code_of_pool_size(len(meta["pool"]))
    body = tables["records"].tobytes() + tables["sync"].tobytes()
    return frame(header, meta_line + b"\n" + body)


def sync_heavy_result(messages: int = 200):
    """A four-record experiment carrying ``messages`` sync messages, C400-style."""
    hosts = ("h0", "h1", "h2")
    table = SyncTable()
    for index in range(messages):
        other = hosts[1 + index % 2]
        pair = ("h0", other) if index % 4 < 2 else (other, "h0")
        table.append(*pair, index * 1e-3, index * 1e-3 + 2e-4)
    return replace(synthetic_result(3), sync_messages=table, hosts=hosts)


class TestPoolCodeRange:
    """A checksum-valid block whose codes leave the pool is corrupt, not misread."""

    CASES = [
        (table, column, code)
        for table, columns, codes in (
            ("records", ("host", "event", "state", "fault"), (-1, None)),
            ("sync", ("sender", "receiver"), (-1, 0, None)),
        )
        for column in columns
        for code in codes
    ]

    @pytest.mark.parametrize("table, column, code", CASES)
    def test_out_of_range_code_is_rejected(self, table, column, code):
        block = encode_block(sync_heavy_result(6))
        decode_block(*split_block(block))  # the untouched block is fine
        # ``None`` stands for ``len(pool)``, the first code past the pool.
        bad = with_code(block, table, column, lambda size: size if code is None else code)
        with pytest.raises(StoreIntegrityError, match="codes leave the string pool"):
            decode_block(*split_block(bad))

    def test_last_valid_code_is_accepted(self):
        block = with_code(
            encode_block(sync_heavy_result(6)), "sync", "sender", lambda size: size - 1
        )
        decoded = decode_block(*split_block(block))
        assert decoded.sync_messages[0].sender is not None

    def test_scan_and_verify_count_it_corrupt_and_carry_on(self, tmp_path):
        bad = with_code(encode_block(sync_heavy_result(6)), "sync", "receiver", lambda size: -1)
        intact = encode_block(synthetic_result(4))
        scan = scan_blocks(file_of(bad, intact))
        assert (scan.valid, scan.corrupt) == (1, 1)
        assert scan.valid_end == len(file_of(bad, intact))

        campaign = build_campaign(experiments=2)
        store = CampaignStore(tmp_path / "c", codec="columnar")
        with store:
            run_and_analyze(campaign, store=store)
        path = store.columnar_path("alpha")
        path.write_bytes(path.read_bytes() + bad)
        report = store.verify()["alpha"]
        assert (report.valid, report.corrupt, report.superseded) == (2, 1, 0)
        assert sorted(store.load_study_records("alpha")) == [0, 1]


class TestSyncTableInBlocks:
    """The sync table goes into a block, and comes out of it, as columns."""

    def test_appended_and_listed_tables_encode_to_the_same_bytes(self):
        result = sync_heavy_result()
        from_list = replace(result, sync_messages=list(result.sync_messages))
        recoded = SyncTable(["unused", "h2", "h1", "h0"])
        for m in result.sync_messages:
            recoded.append(m.sender, m.receiver, m.send_time, m.receive_time)
        block = encode_block(result)
        assert encode_block(from_list) == block
        assert encode_block(replace(result, sync_messages=recoded)) == block
        # ... and a decoded table (coded against the block pool) re-encodes to them.
        decoded = decode_block(*split_block(block))
        assert decoded.sync_messages == result.sync_messages
        assert encode_block(decoded) == block

    def test_decoded_table_views_the_block(self):
        decoded = decode_block(*split_block(encode_block(sync_heavy_result())))
        table = decoded.sync_messages
        assert isinstance(table, SyncTable) and len(table) == 200
        for column in (table.sender, table.receiver, table.send_time, table.receive_time):
            assert isinstance(column, np.ndarray) and not column.flags.owndata
        assert table[0] == SyncMessageRecord("h0", "h1", 0.0, 2e-4)

    def test_decoding_builds_no_per_message_objects(self):
        # The property the archive path's speed rests on: a 200-message
        # block decodes into a handful of containers, not 200 records (the
        # row-building decoder allocated > 200 tracked objects here).
        header, payload = split_block(encode_block(sync_heavy_result()))
        decode_block(header, payload)  # warm the dtype and fault-spec caches
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            decoded = decode_block(header, payload)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(decoded.sync_messages) == 200
        assert grown < 50, f"decoding one block left {grown} new tracked objects"

    def test_slimmed_result_is_still_refused_by_append(self, tmp_path):
        store = CampaignStore(tmp_path / "c", codec="columnar")
        result = sync_heavy_result(6)
        for empty in ([], SyncTable()):
            with pytest.raises(StoreError, match="raw payload"):
                store.append(replace(result, local_timelines={}, sync_messages=empty))


# ---------------------------------------------------------------------------
# File scanning and torn-tail healing
# ---------------------------------------------------------------------------


class TestScanAndHeal:
    def test_scan_reads_every_block(self):
        blocks = [encode_block(synthetic_result(seed)) for seed in range(4)]
        scan = scan_blocks(file_of(*blocks))
        assert scan.valid == 4 and scan.corrupt == 0
        assert scan.valid_end == len(file_of(*blocks))

    def test_scan_refuses_foreign_files(self):
        # A writer must never "heal" (truncate) a file that is not a
        # columnar store in the first place.
        with pytest.raises(StoreIntegrityError, match="magic"):
            scan_blocks(b'{"payload": "this is a jsonl store"}\n')

    def test_torn_tail_ends_the_valid_prefix(self):
        intact = file_of(
            encode_block(synthetic_result(1)), encode_block(synthetic_result(2))
        )
        torn = intact + encode_block(synthetic_result(3))[:-17]
        scan = scan_blocks(torn)
        assert scan.valid == 2 and scan.corrupt == 1
        assert scan.valid_end == len(intact)

    def test_checksum_tamper_ends_the_valid_prefix(self):
        block = bytearray(encode_block(synthetic_result(1)))
        block[-30] ^= 0xFF  # flip a payload byte; header checksum now lies
        scan = scan_blocks(file_of(bytes(block)))
        assert scan.valid == 0 and scan.corrupt == 1
        assert scan.valid_end == len(MAGIC_LINE)

    def test_writer_heals_torn_tail_before_appending(self, tmp_path):
        store = CampaignStore(tmp_path / "c", codec="columnar")
        with store:
            store.append(synthetic_result(1))
        path = store.columnar_path("synthetic")
        intact = path.read_bytes()
        path.write_bytes(intact + encode_block(synthetic_result(2))[:-9])

        with store:
            store.append(synthetic_result(3))
        scan = scan_blocks(path.read_bytes())
        assert scan.valid == 2 and scan.corrupt == 0
        assert [r.seed for r in scan.results] == [
            synthetic_result(1).seed,
            synthetic_result(3).seed,
        ]


# ---------------------------------------------------------------------------
# Store-level codec transparency
# ---------------------------------------------------------------------------


class TestColumnarStore:
    def test_unknown_codec_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="unknown store codec"):
            CampaignStore(tmp_path / "c", codec="parquet")

    def test_store_backed_run_matches_plain_run(self, tmp_path):
        campaign = build_campaign()
        plain = run_and_analyze(campaign)
        store = CampaignStore(tmp_path / "c", codec="columnar")
        with store:
            stored = run_and_analyze(campaign, store=store)
        assert campaign_measures_of(stored) == campaign_measures_of(plain)
        # Re-analysis straight off the columnar files: still bit-identical.
        assert campaign_measures_of(store.load_analysis(campaign)) == (
            campaign_measures_of(plain)
        )

    def test_columnar_and_jsonl_stores_agree_record_for_record(self, tmp_path):
        campaign = build_campaign()
        jsonl = CampaignStore(tmp_path / "jsonl", codec="jsonl")
        columnar = CampaignStore(tmp_path / "col", codec="columnar")
        run_and_analyze(campaign, store=jsonl)
        with columnar:
            run_and_analyze(campaign, store=columnar)
        for study in campaign.studies:
            left = jsonl.load_study_records(study.name)
            right = columnar.load_study_records(study.name)
            assert sorted(left) == sorted(right)
            for index in left:
                assert result_to_dict(left[index]) == result_to_dict(right[index])

    def test_manifest_records_the_codec(self, tmp_path):
        store = CampaignStore(tmp_path / "c", codec="columnar")
        manifest = store.attach(build_campaign())
        assert manifest.codec == "columnar"
        assert store.read_manifest().codec == "columnar"
        # Default stores stamp (and old manifests imply) "jsonl".
        plain = CampaignStore(tmp_path / "d")
        assert plain.attach(build_campaign()).codec == "jsonl"
        data = json.loads(plain.manifest_path.read_text(encoding="utf-8"))
        del data["codec"]  # a manifest written before the key existed
        plain.manifest_path.write_text(json.dumps(data), encoding="utf-8")
        assert plain.read_manifest().codec == "jsonl"

    def test_jsonl_campaign_resumes_and_grows_columnar(self, tmp_path, monkeypatch):
        # The migration story: record a campaign as JSONL, then grow it
        # with a columnar writer.  Old records are reused (not re-run) and
        # the merged read is bit-identical to a plain run of the grown
        # campaign.
        small = build_campaign(experiments=2)
        run_and_analyze(small, store=CampaignStore(tmp_path / "c", codec="jsonl"))

        simulated: list[tuple[str, int]] = []
        original = CampaignRunner.run_experiment

        def counting(self, study, index):
            simulated.append((study.name, index))
            return original(self, study, index)

        monkeypatch.setattr(CampaignRunner, "run_experiment", counting)
        large = build_campaign(experiments=4)
        store = CampaignStore(tmp_path / "c", codec="columnar")
        with store:
            grown = run_and_analyze(large, store=store)
        assert sorted(simulated) == [
            ("alpha", 2), ("alpha", 3), ("beta", 2), ("beta", 3),
        ]
        assert campaign_measures_of(grown) == campaign_measures_of(
            run_and_analyze(large)
        )
        # Both codecs' files now exist side by side and verify() sees all
        # records across them.
        assert store.records_path("alpha").is_file()
        assert store.columnar_path("alpha").is_file()
        assert all(report.valid == 4 for report in store.verify().values())

    def test_columnar_record_supersedes_jsonl_for_same_index(self, tmp_path):
        from dataclasses import replace

        result = synthetic_result(6)
        jsonl = CampaignStore(tmp_path / "c", codec="jsonl")
        jsonl.append(result)
        rewritten = replace(result, duration=result.duration + 1.0)
        store = CampaignStore(tmp_path / "c", codec="columnar")
        with store:
            store.append(rewritten)
        loaded = store.load_study_records("synthetic")
        assert loaded[result.index].duration == rewritten.duration

    def test_streamed_fingerprint_equals_whole_campaign_dump(self, tmp_path):
        # content_fingerprint() feeds the hasher record by record; the
        # value is *defined* as the digest of one canonical dump of
        # {study: {str(index): payload}}, where a payload is what append
        # archives: its sync table kept to the envelope rows.  Twelve
        # indices make "10" and "11" sort before "2", one index is
        # superseded across codecs and one within the columnar file.
        campaign = build_campaign()
        records = {
            study.name: [
                replace(synthetic_result(40 * position + index), study=study.name, index=index)
                for index in range(12)
            ]
            for position, study in enumerate(campaign.studies)
        }
        jsonl = CampaignStore(tmp_path / "c", codec="jsonl")
        jsonl.attach(campaign)
        for record in records["alpha"][:4]:
            jsonl.append(replace(record, duration=record.duration + 1.0))
        store = CampaignStore(tmp_path / "c", codec="columnar")
        with store:
            store.append(replace(records["beta"][11], duration=-1.0))
            for study_records in records.values():
                for record in reversed(study_records):
                    store.append(record)
        assert store.verify()["alpha"].superseded == 4
        assert store.verify()["beta"].superseded == 1

        def archived(record):
            envelope = envelope_rows(record.sync_messages, record.hosts, record.reference_host)
            return replace(record, sync_messages=envelope)

        content = {
            name: {
                str(record.index): result_to_dict(archived(record))
                for record in study_records
            }
            for name, study_records in records.items()
        }
        whole = json.dumps(content, sort_keys=True, separators=(",", ":"))
        assert store.content_fingerprint() == hashlib.sha256(whole.encode("utf-8")).hexdigest()
        # And an empty campaign is the digest of "{}" / of empty studies.
        empty = CampaignStore(tmp_path / "e")
        empty.attach(campaign)
        assert empty.content_fingerprint() == hashlib.sha256(
            b'{"alpha":{},"beta":{}}'
        ).hexdigest()

    def test_interrupted_columnar_campaign_resumes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        from test_store import TestResumeRoundTrip

        campaign = build_campaign(experiments=3)
        baseline = campaign_measures_of(run_and_analyze(campaign))
        store = CampaignStore(tmp_path / "c", codec="columnar")
        TestResumeRoundTrip().interrupt_after(store, campaign, count=3)
        store.close()  # the kill dropped the engine's reference mid-flight
        assert sum(report.valid for report in store.verify().values()) == 3

        simulated: list[tuple[str, int]] = []
        original = CampaignRunner.run_experiment

        def counting(self, study, index):
            simulated.append((study.name, index))
            return original(self, study, index)

        monkeypatch.setattr(CampaignRunner, "run_experiment", counting)
        with store:
            resumed = run_and_analyze(campaign, store=store)
        assert len(simulated) == 3
        assert campaign_measures_of(resumed) == baseline
