"""Compare two result sets of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A/results.json B/results.json

``A`` is the base (the parent commit, or the first of two runs of one
commit), ``B`` the change.  For every workload x end-to-end metric it
prints both medians with quartiles, the ratio ``B/A`` with its base, the
bound from ``BENCHMARK.json`` and a verdict:

``ok``          B's median is not worse than A's by more than the bound
``regressed``   it is
``unresolved``  the quartile spread of either side is wider than the bound,
                so the medians cannot settle it — unless every sample of B
                is better than every sample of A, which is ``ok``

It also requires what must repeat exactly to do so: every
``results_digest``, zero failed operations, and (when both sets were
traced) every per-layer metric whose unit is ``count`` or ``bytes``.
Exits 1 if anything is ``regressed``, ``unresolved`` or unequal.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from e2e_common import load_spec

EXACT_UNITS = ("count", "bytes")


def verdict(base: dict, change: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, B/A)`` for one metric's two sample summaries."""
    sign = 1.0 if better == "lower" else -1.0
    ratio = change["median"] / base["median"]
    spread = max(
        (side["q3"] - side["q1"]) / abs(side["median"]) for side in (base, change)
    )
    if spread > bound:
        all_better = all(
            sign * (b - a) < 0 for a in base["samples"] for b in change["samples"]
        )
        return ("ok" if all_better else "unresolved"), ratio
    worse_by = sign * (change["median"] - base["median"]) / abs(base["median"])
    return ("regressed" if worse_by > bound else "ok"), ratio


def compare(base: dict, change: dict, spec: dict) -> list[str]:
    """Print the table; return one line per problem found."""
    problems: list[str] = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in base["workloads"] or name not in change["workloads"]:
            problems.append(f"{name}: missing from one side")
            continue
        a, b = base["workloads"][name], change["workloads"][name]
        for metric in spec["end_to_end"]:
            one, two = a["end_to_end"][metric["name"]], b["end_to_end"][metric["name"]]
            outcome, ratio = verdict(one, two, metric["better"], metric["bound"])
            print(
                f"{name:<18} {metric['name']:<14} "
                f"A {one['median']:<10.5g} [{one['q1']:.5g}, {one['q3']:.5g}] n={one['n']:<3} "
                f"B {two['median']:<10.5g} [{two['q1']:.5g}, {two['q3']:.5g}] n={two['n']:<3} "
                f"B/A {ratio:.3f} (base {one['median']:.5g} {metric['unit']}) "
                f"bound {metric['bound']:.0%} {metric['better']}-is-better  {outcome}"
            )
            if outcome != "ok":
                problems.append(f"{name} {metric['name']}: {outcome}")
        if a["results_digest"] != b["results_digest"]:
            if a["seed"] == b["seed"]:
                problems.append(f"{name}: results_digest differs at the same seed")
        for side, label in ((a, "A"), (b, "B")):
            if side["failed"]:
                problems.append(
                    f"{name}: {side['failed']} of {side['attempted']} operations failed in {label}"
                )
        if "per_layer" in a and "per_layer" in b and a["seed"] == b["seed"]:
            for metric, one in a["per_layer"].items():
                two = b["per_layer"].get(metric)
                if one["unit"] in EXACT_UNITS and two and one["value"] != two["value"]:
                    problems.append(
                        f"{name} {metric}: exact count {one['value']} became {two['value']}"
                    )
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (json.loads(Path(path).read_text()) for path in argv)
    spec = load_spec()
    for label, side in (("A", base), ("B", change)):
        host = next(iter(side["workloads"].values()))["host"]
        print(f"{label}: {json.dumps(host)}")
    problems = compare(base, change, spec)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("no regressed, unresolved or unequal entries" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
