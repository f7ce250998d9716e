"""Doc-sync tests: the documentation's code can never silently rot.

Three layers, mirroring the README scenario-table check in
``tests/test_scenarios.py``:

* every fenced ``python`` code block in ``README.md`` and ``docs/*.md``
  must at least **compile** (the ``python -m compileall`` of the docs);
* the README's runnable snippets (quickstart, persistence & resume) are
  **executed** in a scratch directory and must run clean;
* the prose is spot-checked for the contracts it promises (the quickstart
  must mention the ``store=`` parameter, the architecture tour must cover
  every phase module);
* the two cheap ``examples/`` scripts are **run** the way the README says
  to run them and must exit 0 without touching the working tree.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.execution import DISTRIBUTED, PROCESS_POOL, available_backends

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DOCS = ROOT / "docs"

def extract_code_blocks(path: Path, language: str = "python") -> list[tuple[int, str]]:
    """All fenced code blocks of ``language`` in ``path`` as (line, code)."""
    blocks: list[tuple[int, str]] = []
    in_block = False
    block_language = ""
    current: list[str] = []
    start = 0
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not in_block and stripped.startswith("```"):
            in_block = True
            block_language = stripped[3:].strip()
            current = []
            start = number + 1
        elif in_block and stripped == "```":
            if block_language == language:
                blocks.append((start, "\n".join(current)))
            in_block = False
        elif in_block:
            current.append(line)
    return blocks


def git_status() -> str | None:
    """``git status --porcelain`` of the checkout, or ``None`` outside a work tree."""
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return status.stdout if status.returncode == 0 else None


class TestExamplesRun:
    """Nothing else executes ``examples/``; these two are the cheap ones (< 1 s each)."""

    @pytest.mark.parametrize("script", ["clock_sync_demo.py", "quickstart.py"])
    def test_example_exits_cleanly_and_leaves_the_tree_alone(self, script, tmp_path):
        before = git_status()
        environment = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        completed = subprocess.run(
            [sys.executable, str(ROOT / "examples" / script)],
            cwd=tmp_path,
            env=environment,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip(), f"{script} printed nothing"
        assert git_status() == before, f"{script} left files behind in the checkout"


def documented_files() -> list[Path]:
    files = [README]
    if DOCS.is_dir():
        files.extend(sorted(DOCS.glob("*.md")))
    return files


class TestDocCodeCompiles:
    @pytest.mark.parametrize("path", documented_files(), ids=lambda p: p.name)
    def test_every_python_block_compiles(self, path):
        blocks = extract_code_blocks(path)
        for line, code in blocks:
            try:
                compile(code, f"{path.name}:{line}", "exec")
            except SyntaxError as error:  # pragma: no cover - a failing doc
                pytest.fail(f"{path.name} line {line}: snippet does not compile: {error}")

    def test_readme_has_runnable_snippets(self):
        # The quickstart and persistence snippets below must keep existing;
        # this guards the execution tests against silently matching nothing.
        blocks = [code for _, code in extract_code_blocks(README)]
        assert any("run_and_analyze(campaign" in code for code in blocks)
        assert any("CampaignStore(" in code for code in blocks)


class TestReadmeSnippetsRun:
    def run_snippet(self, code: str, tmp_path, monkeypatch) -> dict:
        monkeypatch.chdir(tmp_path)
        namespace: dict = {"__name__": "__readme__"}
        exec(compile(code, "README.md", "exec"), namespace)
        return namespace

    @pytest.mark.parametrize(
        "marker",
        [
            "run_and_analyze(campaign",
            "CampaignStore(",
            "ExecutionConfig.distributed(",
            "notes_of_kind(",
        ],
        ids=["quickstart", "persistence", "distributed", "protocol"],
    )
    def test_snippet_executes(self, marker, tmp_path, monkeypatch):
        snippets = [
            code for _, code in extract_code_blocks(README) if marker in code
        ]
        assert snippets, f"README lost its {marker!r} snippet"
        for code in snippets:
            if "process_pool" in code and PROCESS_POOL not in available_backends():
                pytest.skip("snippet needs the fork start method")
            if "distributed(" in code and DISTRIBUTED not in available_backends():
                pytest.skip("snippet needs the fork start method")
            self.run_snippet(code, tmp_path, monkeypatch)


class TestDocContracts:
    def test_readme_scenario_table_is_in_sync(self):
        """The generated scenario table matches the live registry.

        ``sync_markdown_table(write=False)`` is the pure drift check; a
        stale table is regenerated with
        ``PYTHONPATH=src python -m repro.scenarios.catalog``.
        """
        from repro.scenarios import DEFAULT_REGISTRY

        assert DEFAULT_REGISTRY.sync_markdown_table(README, write=False), (
            "README scenario table is stale; regenerate it with "
            "'PYTHONPATH=src python -m repro.scenarios.catalog'"
        )

    def test_architecture_tour_covers_the_protocol_suite(self):
        """The tour documents each protocol app with its invariant and measure."""
        text = (DOCS / "architecture.md").read_text(encoding="utf-8")
        assert "Protocol scenario suite" in text
        for token in (
            "repro.apps.raft",
            "repro.apps.quorum",
            "repro.apps.swim",
            "repro.apps.dfsmaster",
            "tests/protocol",
            "dual-leadership",
            "stale-reads",
            "confirm-events",
            "replica-divergence",
        ):
            assert token in text, f"architecture tour does not mention {token}"

    def test_quickstart_mentions_the_store_parameter(self):
        text = README.read_text(encoding="utf-8")
        quickstart = text.split("## Quickstart")[1].split("\n## ")[0]
        assert "store=" in quickstart, (
            "the README quickstart must mention that run_and_analyze accepts a store"
        )
        assert "Persistence & resume" in text

    def test_architecture_tour_exists_and_covers_every_phase(self):
        tour = DOCS / "architecture.md"
        assert tour.is_file(), "docs/architecture.md is missing"
        text = tour.read_text(encoding="utf-8")
        for module in (
            "repro.core",
            "repro.sim",
            "repro.analysis",
            "repro.measures",
            "repro.store",
            "repro.dist",
            "scenarios",
        ):
            assert module in text, f"architecture tour does not mention {module}"
        # The store data-flow diagram is part of the tour's contract.
        assert "CampaignStore" in text
        assert "manifest.json" in text

    def test_architecture_tour_module_references_exist(self):
        """Every `src/...`-style path the tour references must exist."""
        text = (DOCS / "architecture.md").read_text(encoding="utf-8")
        for reference in re.findall(r"`((?:sim|core|analysis|measures)/\w+\.py)`", text):
            assert (ROOT / "src" / "repro" / reference).is_file(), (
                f"architecture.md references missing module {reference}"
            )
