"""Self-test of the end-to-end benchmark, at smoke size (collected by tier-1).

Runs every workload once, traced, in this process, and checks the
contract the benchmark is held to: every metric of ``BENCHMARK.json`` is
emitted with a unit and a finite value, the backends' digests agree,
failures are counted, and the run leaves nothing behind.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import compare as e2e_compare  # noqa: E402
import run as e2e_run  # noqa: E402
from e2e_common import ROOT, SMOKE, load_spec  # noqa: E402
from e2e_workloads import Observation, count_failed  # noqa: E402

SPEC = load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def git_status() -> str | None:
    try:
        output = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return output.stdout if output.returncode == 0 else None


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """All six workloads, traced, plus the git status before and after."""
    out = tmp_path_factory.mktemp("e2e-out")
    before = git_status()
    results = {
        workload["name"]: e2e_run.measure(
            workload["name"], seed=7, seconds=0.0, trace=True, sizes=SMOKE, out=out
        )
        for workload in SPEC["workloads"]
    }
    return results, before, git_status(), out


def test_every_named_metric_is_emitted(smoke_run):
    results = smoke_run[0]
    for section, value_key in (("end_to_end", "median"), ("per_layer", "value")):
        expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
        assert all(NAME.match(name) for name in expected)
        for workload, result in results.items():
            emitted = result[section]
            assert set(emitted) == set(expected), workload
            for name, metric in emitted.items():
                assert metric["unit"] == expected[name] and metric["unit"]
                assert math.isfinite(metric[value_key]), (workload, name)
    for result in results.values():
        assert all(metric["median"] > 0 for metric in result["end_to_end"].values())
        assert result["absent"] == {}
        assert result["host"]["cpus"] >= 1 and result["host"]["calibration_s"] > 0


def test_command_line_prints_what_the_driver_reads(capsys):
    arguments = ["--workload", "sim_storm", "--seed", "3", "--seconds", "0", "--smoke"]
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        assert e2e_run.main(arguments + ["--trace", trace]) == 0
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {metric["name"] for metric in SPEC[section]}
        assert all(set(metric) == {"value", "unit"} for metric in line["metrics"].values())


def test_digests_agree_across_backends_and_nothing_failed(smoke_run):
    results = smoke_run[0]
    serial = results["protocol_serial"]["results_digest"]
    for name in e2e_run.SAME_DIGEST:
        assert results[name]["results_digest"] == serial, name
    assert results["sim_storm"]["results_digest"] != serial
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0 and result["warnings"] == [], name
    assert results["protocol_store"]["store_bytes_per_experiment"] > 0


def test_layers_match_the_work_each_workload_does(smoke_run):
    results = smoke_run[0]
    serial = {name: m["value"] for name, m in results["protocol_serial"]["per_layer"].items()}
    shares = ("core.campaign.share", "analysis.share", "measures.share", "trace.remainder_share")
    assert sum(serial[name] for name in shares) == pytest.approx(1.0, abs=0.02)
    assert serial["trace.overhead_ratio"] > 0
    archive = results["archive_reanalyze"]["per_layer"]
    for name, metric in archive.items():
        if name.startswith(("sim.", "core.runtime.", "core.campaign.", "apps.")):
            assert metric["value"] == 0.0, name
    assert archive["store.columnar.decode_block_ms"]["value"] > 0
    storm = results["sim_storm"]["per_layer"]
    assert storm["sim.kernel.compactions"]["value"] > 0
    assert storm["analysis.share"]["value"] == 0.0


def test_mismatch_and_fallback_warning_count_as_failed_operations():
    reference = Observation(lines=["a:0", "a:1", "a:2"], checks=["estimate:1"])
    assert count_failed(reference, reference, [], 3) == 0
    wrong_line = Observation(lines=["a:0", "a:X", "a:2"], checks=["estimate:1"])
    assert count_failed(wrong_line, reference, [], 3) == 1
    missing = Observation(lines=["a:0"], checks=["estimate:2"], failed=1)
    assert count_failed(missing, reference, [], 3) == 3
    fallback = ["distributed backend falling back to in-process serial execution: no workers"]
    assert count_failed(reference, reference, fallback, 3) == 3


def test_span_file_and_result_file_are_written_on_request(smoke_run):
    out = smoke_run[3]
    spans = [json.loads(line) for line in (out / "protocol_store.spans.jsonl").open()]
    names = {span["name"] for span in spans}
    assert {"benchmark.drive", "store.campaign_store.append", "store.columnar.encode_block"} <= names
    by_id = {span["id"]: span for span in spans}
    child = next(span for span in spans if span["name"] == "store.columnar.encode_block")
    parent = by_id[child["parent"]]
    assert parent["name"] == "store.campaign_store.append"
    assert child["trace"] is not None and child["trace"] == parent["trace"]
    assert json.loads((out / "protocol_store.json").read_text())["workload"] == "protocol_store"


def test_compare_accepts_a_set_against_itself(smoke_run, capsys):
    both = {"workloads": smoke_run[0]}
    assert e2e_compare.compare(both, both, SPEC) == []
    slower = json.loads(json.dumps(both))
    metric = slower["workloads"]["sim_storm"]["end_to_end"]["ops_per_s"]
    metric.update({key: metric[key] / 2 for key in ("median", "q1", "q3")})
    metric["samples"] = [value / 2 for value in metric["samples"]]
    assert e2e_compare.compare(both, slower, SPEC) == ["sim_storm ops_per_s: regressed"]
    capsys.readouterr()


def test_run_leaves_nothing_behind(smoke_run):
    _, before, after, _ = smoke_run
    assert not list(BENCH_DIR.glob("work-*"))
    if before is not None:
        assert after == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sim_storm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
