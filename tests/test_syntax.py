"""The package, its tests and the benchmark parse as Python 3.10.

That is the oldest version supported.  ``ast.parse`` with
``feature_version`` rejects newer grammar such as ``except*``; it does not
catch calls to library functions added later.
"""

import ast
import glob
import os

import ezfloat

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(ezfloat.__file__)))


def test_sources_parse_as_python_310():
    paths = glob.glob(os.path.join(ROOT, "src", "ezfloat", "*.py"))
    paths += glob.glob(os.path.join(ROOT, "tests", "*.py"))
    paths += glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
    assert os.path.join(ROOT, "tests", "test_syntax.py") in paths
    assert os.path.join(ROOT, "perfbench", "run.py") in paths
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            # A SyntaxError names the file and the line.
            ast.parse(handle.read(), filename=path, feature_version=(3, 10))
