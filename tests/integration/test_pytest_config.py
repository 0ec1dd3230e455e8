"""The suite's pytest configuration reports failures instead of crashing.

``pyproject.toml`` turns every DeprecationWarning into an error.  Reporting
a failing hypothesis test imports libcst (for the explicit-example patch
hint), and libcst builds a ``mypy_extensions.TypedDict``, whose
DeprecationWarning, as an error, used to stop the whole run with an
INTERNALERROR (exit code 3) and lose the failure's report.  Each probe runs
pytest on a throwaway test file in a fresh interpreter, under the repo's
own configuration.
"""

import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


def _pytest(tmp_path, source: str) -> subprocess.CompletedProcess:
    test = tmp_path / "test_probe.py"
    test.write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(_PYPROJECT), "-p", "no:cacheprovider",
         "-q", str(test)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    completed = _pytest(
        tmp_path,
        "from hypothesis import given, strategies as st\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n",
    )
    output = completed.stdout + completed.stderr
    assert completed.returncode == 1, output  # tests failed, not an internal error
    assert "INTERNALERROR" not in output
    assert "test_fails" in completed.stdout


def test_other_deprecation_warnings_stay_errors(tmp_path):
    completed = _pytest(
        tmp_path,
        "import warnings\n"
        "def test_warns():\n"
        "    warnings.warn('old API', DeprecationWarning)\n",
    )
    assert completed.returncode == 1, completed.stdout + completed.stderr
    assert "DeprecationWarning: old API" in completed.stdout
