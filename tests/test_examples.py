"""Smoke tests: every shipped example, and every Python block in the
README, runs end-to-end."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"


def run_python(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=300,
    )


def run_example(name, *args):
    return run_python(str(EXAMPLES_DIR / name), *args)


@pytest.mark.parametrize("name,args,expect", [
    ("quickstart.py", ("3000",), "Headline adoption"),
    ("longitudinal_trends.py", ("4000",), "Incremental execution"),
    ("sdk_migration_report.py", ("4000",), "SDK migration report"),
    ("iab_privacy_audit.py", (), "IAB privacy audit"),
    ("crawl_top_sites.py", ("10",), "Kik IAB"),
    ("pageload_benchmark.py", ("4",), "WebView / Custom Tab ratio"),
    ("privacy_nutrition_labels.py", ("4000",), "hygiene grades"),
])
def test_example_runs(name, args, expect):
    completed = run_example(name, *args)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert expect in completed.stdout


def test_quickstart_reports_paper_comparison():
    completed = run_example("quickstart.py", "3000")
    assert "55.7%" in completed.stdout
    assert "apps using WebViews" in completed.stdout


def readme_python_blocks():
    """One param per ```python block of README, named by its section."""
    text = (ROOT / "README.md").read_text("utf-8")
    return [pytest.param(source, id=section.split("\n", 1)[0])
            for section in text.split("\n## ")
            for source in re.findall(r"^```python\n(.*?)^```", section,
                                     re.S | re.M)]


@pytest.mark.parametrize("source", readme_python_blocks())
def test_readme_block_runs(source):
    completed = run_python("-c", source)
    assert completed.returncode == 0, completed.stderr[-2000:]
