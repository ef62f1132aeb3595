"""The test settings of pyproject.toml report a failing property and go on."""

import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_from_ten(x):
    assert x < 10


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_property_prints_its_example_and_the_session_goes_on(tmp_path):
    # warnings are errors, so a warning raised while Hypothesis' pytest plugin
    # reports the failure (the libcst it imports, for one) would end the
    # session with INTERNALERROR in place of the falsifying example
    (tmp_path / "test_property.py").write_text(_FAILING_THEN_PASSING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(_PYPROJECT),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails_from_ten(" in out
    assert "1 failed, 1 passed" in out
    assert result.returncode == 1
