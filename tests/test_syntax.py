"""Every Python file parses as Python 3.10, the oldest version that
pyproject.toml promises (requires-python >= 3.10), whatever version runs
the tests."""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PY310 = (3, 10)


def _sources():
    for top in ("src", "tests", "perfbench"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.relpath(os.path.join(folder, name), ROOT)


SOURCES = list(_sources())


def test_sources_are_found():
    for path in ("src/dyndeg/cli.py", "tests/test_syntax.py", "perfbench/run.py"):
        assert path.replace("/", os.sep) in SOURCES


@pytest.mark.parametrize("path", SOURCES)
def test_parses_as_python_3_10(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        ast.parse(fh.read(), filename=path, feature_version=PY310)


@pytest.mark.parametrize(
    "source",
    [
        "try:\n    pass\nexcept* ValueError:\n    pass\n",  # 3.11 exception groups
        "def first[T](items: list[T]) -> T:\n    return items[0]\n",  # 3.12 generics
    ],
    ids=["except-star", "pep-695"],
)
def test_newer_syntax_is_rejected(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=PY310)
