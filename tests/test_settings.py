"""The suite's own pytest settings. A failing Hypothesis test must fail as
one test and let the session go on, under pyproject's `filterwarnings` and
under the `-W` options of CI's strict step, which replace them."""

import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FAILING_AND_PASSING = """
from hypothesis import given, strategies as st

@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0

def test_passes():
    pass
"""


def strict_step_warning_options() -> list[str]:
    """The `-W` options of CI's strict tier-1 command, in order."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    command = next(line for line in workflow.splitlines()
                   if line.lstrip().startswith("run:") and "-W error" in line)
    words = shlex.split(command)
    return [word for flag, value in zip(words, words[1:]) if flag == "-W"
            for word in (flag, value)]


@pytest.mark.parametrize("options", [[], strict_step_warning_options()],
                         ids=["pyproject", "ci-strict"])
def test_a_failing_hypothesis_test_fails_alone(pytester, options):
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    pytester.makepyfile(test_inner=FAILING_AND_PASSING)
    result = pytester.runpytest_subprocess(*options, "test_inner.py")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
