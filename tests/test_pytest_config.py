"""The pytest settings in ``pyproject.toml``: every warning is an error but one.

Each test runs pytest in a subprocess on a small file of its own, with the
project's settings and ``tmp_path`` as root and working directory, so that
what Hypothesis and pytest write stays there.
"""

import os
import subprocess
import sys

import ezfloat

PYPROJECT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(ezfloat.__file__))), "pyproject.toml"
)

_FAILING_EXAMPLE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""

_WARNINGS = """
import warnings


def test_other_deprecation():
    warnings.warn("some other API is deprecated", DeprecationWarning)


def test_libcst_deprecation():
    warnings.warn("mypy_extensions.TypedDict is deprecated, and will be removed",
                  DeprecationWarning)
"""


def _pytest(tmp_path, source):
    (tmp_path / "test_probe.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def _assert_one_failed_one_passed(done):
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out
    assert done.returncode == 1, out
    assert sum(line.startswith("FAILED ") for line in out.splitlines()) == 1, out
    assert "1 failed, 1 passed" in out, out


def test_a_failing_hypothesis_example_does_not_end_the_session(tmp_path):
    # Reporting the failing example makes Hypothesis import libcst where it
    # is installed; its deprecation warning must not stop the run.
    done = _pytest(tmp_path, _FAILING_EXAMPLE)
    _assert_one_failed_one_passed(done)
    assert "FAILED test_probe.py::test_fails" in done.stdout


def test_every_other_warning_is_an_error(tmp_path):
    done = _pytest(tmp_path, _WARNINGS)
    _assert_one_failed_one_passed(done)
    assert "FAILED test_probe.py::test_other_deprecation" in done.stdout
