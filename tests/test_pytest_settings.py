"""The repository's pytest settings: a failing hypothesis test is reported
like any other failure, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# a hypothesis test that fails at x = 5, then a test that passes
PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # with filterwarnings = error alone, the hypothesis plugin's report of
    # the failure raised a DeprecationWarning: INTERNALERROR, exit code 3,
    # and test_passes never ran
    (tmp_path / "test_pair.py").write_text(PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in proc.stdout, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in proc.stdout, out
