"""Canonical end-to-end campaign benchmark.  See README.md beside this file.

    python3 benchmarks/e2e/run.py                      # all workloads, one child process each
    python3 benchmarks/e2e/run.py --workload sim_storm --seed 11 --seconds 10 --trace 1

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every end-to-end
metric of ``BENCHMARK.json`` (``--trace 0``) or every per-layer metric
(``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from e2e_common import (  # noqa: E402 - the benchmark's own directory goes on the path first
    BENCH_DIR,
    FULL,
    SMOKE,
    BenchmarkUnavailable,
    Sizes,
    cpu_seconds,
    host_block,
    load_spec,
    peak_rss_mb,
    require_program,
    summarize,
)


def measure(
    name: str, seed: int, seconds: float, trace: bool, sizes: Sizes, out: Path | None
) -> dict:
    """Set up, time and check one workload in this process; returns its result record."""
    from e2e_workloads import build_workload, count_failed, results_digest

    spec = load_spec()
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH_DIR))
    try:
        workload = build_workload(name, seed, sizes, workdir)
        operations = workload.operations

        setups = []
        for _ in range(sizes.setup_repeats):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)

        walls, cpus, observations, warned = [], [], [], []
        # A run is started only if, going by the last one, it ends within
        # ``seconds``: the measured time then stays just under the request.
        deadline = time.perf_counter() + seconds
        while len(walls) < sizes.min_runs or time.perf_counter() + walls[-1] < deadline:
            gc.collect()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cpu_start, start = cpu_seconds(), time.perf_counter()
                payload = workload.run()
                walls.append(time.perf_counter() - start)
                cpus.append(cpu_seconds() - cpu_start)
            observations.append(workload.observe(payload))
            warned.append([str(warning.message) for warning in caught])
            del payload
        rss = peak_rss_mb()

        reference = workload.reference() or observations[0]
        failed = sum(
            count_failed(observation, reference, seen, operations)
            for observation, seen in zip(observations, warned)
        )
        attempted = operations * len(walls)
        end_to_end = {
            "setup_s": setups,
            "ops_per_s": [operations / wall for wall in walls],
            "cpu_us_per_op": [cpu / operations * 1e6 for cpu in cpus],
            "peak_rss_mb": [rss],
        }
        result = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "operations_per_run": operations,
            "host": host_block(seed),
            "results_digest": results_digest(observations[-1].lines),
            "checks": observations[-1].checks,
            "warnings": [message for seen in warned for message in seen],
            "end_to_end": {
                metric: summarize(values, units[metric]) for metric, values in end_to_end.items()
            },
        }
        if "store_bytes" in observations[-1].facts:
            result["store_bytes_per_experiment"] = observations[-1].facts["store_bytes"] / operations

        if trace:
            from e2e_layers import trace_workload
            from e2e_trace import Tracer

            tracer = Tracer()
            layers, traced = trace_workload(
                workload,
                tracer,
                wall_s=statistics.median(walls),
                cpu_s=statistics.median(cpus),
                warnings_seen=len(result["warnings"]),
            )
            layers.values["host.calibration_s"] = result["host"]["calibration_s"]
            unknown = sorted(set(layers.values) - set(units))
            if unknown:
                raise KeyError(f"layer metrics missing from BENCHMARK.json: {unknown}")
            failed += count_failed(traced, reference, [], operations)
            attempted += operations
            result["per_layer"] = {
                metric["name"]: {
                    "unit": metric["unit"],
                    "value": layers.values.get(metric["name"], 0.0),
                    "applies": metric["name"] in layers.values,
                }
                for metric in spec["per_layer"]
            }
            result["absent"] = layers.absent
            if out is not None:
                tracer.write(out / f"{name}.spans.jsonl")

        result.update(correct=failed == 0, attempted=attempted, failed=failed)
        if out is not None:
            (out / f"{name}.json").write_text(json.dumps(result, indent=2) + "\n")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(result: dict) -> None:
    """Every metric of one workload by name, with unit, median, quartiles and count."""
    runs = result["end_to_end"]["ops_per_s"]["n"]
    print(
        f"== {result['workload']}: seed {result['seed']}, {runs} timed runs of "
        f"{result['operations_per_run']} operations =="
    )
    for name, metric in result["end_to_end"].items():
        print(
            f"  {name:<18} {metric['unit']:<5} median {metric['median']:<12.6g} "
            f"q1 {metric['q1']:<12.6g} q3 {metric['q3']:<12.6g} n={metric['n']}"
        )
    if "store_bytes_per_experiment" in result:
        print(f"  store_bytes_per_experiment  {result['store_bytes_per_experiment']:.1f}")
    for name, metric in result.get("per_layer", {}).items():
        if name in result["absent"]:
            shown = f"absent ({result['absent'][name]})"
        else:
            shown = f"{metric['value']:.6g}" if metric["applies"] else "n/a"
        print(f"  {name:<52} {metric['unit']:<6} {shown}")
    print(f"  results_digest {result['results_digest']}")
    for message in result["warnings"]:
        print(f"  warning: {message}")
    print(f"  failed {result['failed']} of {result['attempted']} operations attempted")


def final_line(result: dict, trace: bool) -> str:
    """The one-line JSON object the driver reads."""
    if trace:
        metrics = {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in result["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": metric["median"], "unit": metric["unit"]}
            for name, metric in result["end_to_end"].items()
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


#: Workloads whose ``results_digest`` must equal ``protocol_serial``'s.
SAME_DIGEST = ("protocol_pool", "protocol_dist", "protocol_store", "archive_reanalyze")


def run_all(args: argparse.Namespace, out: Path) -> int:
    """Each workload in a fresh child process; then the cross-workload digest check."""
    results = {}
    for workload in load_spec()["workloads"]:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
        ] + (["--smoke"] if args.smoke else [])
        completed = subprocess.run(command)
        if completed.returncode != 0:
            print(f"{workload['name']}: exited with code {completed.returncode}", file=sys.stderr)
            return completed.returncode
        results[workload["name"]] = json.loads((out / f"{workload['name']}.json").read_text())
    serial = results["protocol_serial"]["results_digest"]
    disagree = [name for name in SAME_DIGEST if results[name]["results_digest"] != serial]
    correct = not disagree and all(result["correct"] for result in results.values())
    (out / "results.json").write_text(
        json.dumps({"correct": correct, "workloads": results}, indent=2) + "\n"
    )
    print(f"results_digest differs from protocol_serial's on: {disagree or 'none'}")
    print(f"all workloads correct: {correct}")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=7, help="campaign seed (default 7)")
    parser.add_argument("--seconds", type=float, help="how long the timed runs last")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also make the traced run and report the per-layer metrics",
    )
    parser.add_argument("--out", type=Path, help="directory for result and span files")
    parser.add_argument("--smoke", action="store_true", help="self-test sizes (seconds of work)")
    args = parser.parse_args(argv)
    try:
        require_program()
        spec = load_spec()
    except (BenchmarkUnavailable, OSError) as error:
        print(f"benchmark unavailable: {error}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    if args.workload is None:
        if args.out is not None:
            return run_all(args, args.out)
        scratch = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH_DIR))
        try:
            return run_all(args, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    if args.workload not in [workload["name"] for workload in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        SMOKE if args.smoke else FULL, args.out,
    )
    report(result)
    print(final_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
