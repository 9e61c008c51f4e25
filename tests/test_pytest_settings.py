"""The suite's own pytest settings, run on throwaway test files.

``pyproject.toml`` turns every warning into an error.  A hypothesis failure
report raises one warning of its own, and as an error it once ended the
whole session with an INTERNALERROR before the falsifying example was shown.
"""

from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

REPO = Path(__file__).resolve().parents[1]

FAILING = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_small(n):
    assert n < 10


def test_another_deprecation():
    warnings.warn("something else is deprecated", DeprecationWarning)
'''


def test_a_failing_hypothesis_test_reports_its_example(pytester):
    tomllib = pytest.importorskip("tomllib")
    options = tomllib.loads((REPO / "pyproject.toml").read_text())["tool"]["pytest"]
    filters = options["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(test_failing=FAILING)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    out = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in out
    # the example is shown, and every other warning is still an error
    result.assert_outcomes(failed=2)
    assert "Falsifying example: test_small(" in out
    assert "DeprecationWarning: something else is deprecated" in out
