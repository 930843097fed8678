"""Packaging metadata that must agree across files."""

import pathlib
import re
import subprocess
import sys

import tqcoh
from tqcoh import coherence, evolution, linalg, model, scan

ROOT = pathlib.Path(__file__).parent.parent


def _release(version: str) -> tuple[int, ...]:
    """The release numbers without trailing zeros: 1.24 and 1.24.0 are one release."""
    parts = [int(p) for p in version.split(".")]
    while len(parts) > 1 and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def test_ci_numpy_floor_matches_pyproject():
    # A regex, not tomllib: Python 3.10 has no tomllib.
    pyproject = (ROOT / "pyproject.toml").read_text()
    floors = re.findall(r'"numpy>=([0-9][0-9.]*)"', pyproject)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    include = workflow.split("include:", 1)[1]
    pinned = re.findall(r'numpy:\s*"([0-9][0-9.]*)"', include)
    assert len(floors) == 1 and len(pinned) == 1, (floors, pinned)
    assert _release(floors[0]) == _release(pinned[0])


def test_package_exports_each_module_all():
    modules = (coherence, evolution, linalg, model, scan)
    declared = ["__version__"] + [name for module in modules for name in module.__all__]
    # No duplicates, within a module or across two, and nothing else.
    assert len(set(declared)) == len(declared) == len(tqcoh.__all__)
    assert set(tqcoh.__all__) == set(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(tqcoh, name) is getattr(module, name), (module.__name__, name)


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    # Hypothesis imports libcst to report a failure; with the suite's warning
    # filters that import must not abort the run (pytest exit 3, no example).
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "@settings(database=None)\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
