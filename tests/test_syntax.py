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


def _bytes_calls_without_byteorder(tree):
    """Line numbers of direct .to_bytes(...) and .from_bytes(...) calls that
    give no byteorder: the argument is optional only from Python 3.11 on."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("to_bytes", "from_bytes")
        and len(node.args) < 2
        and not any(kw.arg in ("byteorder", None) for kw in node.keywords)
    ]


@pytest.mark.parametrize("path", SOURCES)
def test_byte_conversions_name_their_byteorder(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    assert _bytes_calls_without_byteorder(tree) == []


@pytest.mark.parametrize(
    "source, lines",
    [
        ("n.to_bytes(8)\nint.from_bytes(b'\\x01')\n", [1, 2]),
        ("n.to_bytes(8, 'little')\nint.from_bytes(b, byteorder='big')\n", []),
        ("n.to_bytes(length=8, signed=True)\nint.from_bytes(*args)\n", [1, 2]),
    ],
    ids=["bare", "with-byteorder", "keywords-or-star"],
)
def test_byteorder_check_reads_calls(source, lines):
    assert _bytes_calls_without_byteorder(ast.parse(source)) == lines
