"""Smoke tests: every example script must run to completion.

The examples are part of the public deliverable; these tests execute each one
in-process (monkeypatching nothing, capturing stdout) so a refactor that
breaks an example breaks the test suite, not a user's first experience.
"""

import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))


def test_expected_examples_present():
    assert {
        "quickstart.py",
        "bank_ledger.py",
        "personnel_history.py",
        "design_versions.py",
        "paper_figures.py",
        "crash_recovery.py",
    } <= set(EXAMPLES)


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_to_completion(script, capsys):
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    output = capsys.readouterr().out
    assert output.strip(), f"{script} produced no output"


def test_quickstart_shows_temporal_answers(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "balance=50" in output and "balance=30" in output
    assert "Storage summary" in output


def test_crash_recovery_keeps_exactly_the_forced_commits(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "crash_recovery.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "recovered from checkpoint LSN" in output
    assert "2 committed transactions replayed" in output and "0 losers" in output
    assert "alice after recovery         : balance=50" in output
    assert "carol after recovery         : None" in output
    assert "alice balance=120" in output


def test_paper_figures_reports_all_nine(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "paper_figures.py"), run_name="__main__")
    output = capsys.readouterr().out
    for figure_number in range(1, 10):
        assert f"Figure {figure_number}" in output
    assert "All 9 figures reproduced." in output
