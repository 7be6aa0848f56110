"""The pytest settings of this project, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, deadline=None)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5)))
def test_fails(t):
    assert t[0] < 3


def test_passes():
    pass
'''


def test_failing_property_test_is_reported(tmp_path):
    """A failing hypothesis test whose example is a plain value is reported
    as a failure and the session goes on: warnings are errors, but not the
    one hypothesis triggers while it suggests an @example patch."""
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
