"""The repository's own source tree must lint clean.

This is the enforcement test behind ``make lint`` / ``make
lint-program``: every invariant the rules encode — per-file (trusted
constructors on the checking hot path, validated dispatch,
deterministic output, no mutable defaults, the ReproError hierarchy,
monotonic deadlines) and whole-program (the ARCHITECTURE DAG, a
never-blocked event loop, ReproError-only escapes, determinism of the
fingerprint/verdict-store flows) — holds over ``src/`` right now, with no
baseline debt — only explicitly justified inline suppressions.
"""

import time
from pathlib import Path

from repro.devtools.lint.engine import LintConfig, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_tree_is_lint_clean():
    config = LintConfig(root=REPO_ROOT, use_baseline=False)
    report = lint_paths([REPO_ROOT / "src"], config)
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"repro lint found new violations:\n{rendered}"
    assert report.files_checked > 50


def test_src_tree_is_program_clean_within_budget():
    """The whole-program pass is clean AND fast enough for every CI run.

    The wall-clock assertion is part of the contract: a graph analysis
    that creeps past interactive latency stops being run, and a lint
    that stops being run stops being true.
    """
    start = time.monotonic()
    config = LintConfig(root=REPO_ROOT, use_baseline=False, program=True)
    report = lint_paths([REPO_ROOT / "src"], config)
    elapsed = time.monotonic() - start
    rendered = "\n".join(
        "\n".join(f.render_lines()) for f in report.findings
    )
    assert report.ok, f"repro lint --program found violations:\n{rendered}"
    assert elapsed < 10.0, f"program pass took {elapsed:.1f}s (budget 10s)"


def test_no_baseline_debt_is_committed():
    """The tree is clean outright; a committed baseline would hide debt."""
    assert not (REPO_ROOT / ".repro-lint-baseline.json").exists()
