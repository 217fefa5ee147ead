"""The repository's pytest settings keep a failing test's report readable."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_small(n):
    assert n < 5
"""


def test_a_failing_hypothesis_test_shows_its_falsifying_example(tmp_path):
    # the failure report imports libcst, which warns on a DeprecationWarning
    # that the settings otherwise turn into an internal error
    test_file = tmp_path / "test_failing.py"
    test_file.write_text(FAILING)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    text = out.stdout + out.stderr
    assert out.returncode == 1, text
    assert "Falsifying example" in text and "INTERNALERROR" not in text, text
