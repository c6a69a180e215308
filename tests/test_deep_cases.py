"""CLI rows past the benchmark's depth (tests/data/deep_cases.json).

Each row runs as ``python -m dyndeg.cli`` in a fresh process under the
row's own timeout.  The expected answer is derived from the row's
inputs by closed forms, so a row and its oracle cannot drift apart:
- degree sequences: 2^k on a stable map; on one whose c^2/(ab) gives the
  order n, d_k = 2^k for k <= m = n - 1, then
  d_(k+1) = d_k + ... + d_(k-m+1) + 1;
- locus and intersection sizes: the sum of phi(n)/k over n = 3..nmax;
- marked-orbit verdicts: the least n with e_n = t, e_0 = 1 and
  e_(n+1) = a*e_n + b.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import dyndeg

SRC = os.path.dirname(os.path.dirname(dyndeg.__file__))
with open(os.path.join(os.path.dirname(__file__), "data", "deep_cases.json")) as fh:
    CASES = json.load(fh)

# c^2/(ab) = -2 - 2cos(2pi/n) is rational and nonzero for n = 3, 4, 6 only
_ORDER = {Fraction(-1): 3, Fraction(-2): 4, Fraction(-3): 6}


def _rows(kind, *keys):
    """Parametrize over the rows of one kind, each named by its keys."""
    rows = CASES[kind]["rows"]
    return pytest.mark.parametrize("row", rows, ids=[",".join(str(r[k]) for k in keys) for r in rows])


def _run(row, *argv):
    """The CLI's stdout as JSON, run in a fresh process under row's timeout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dyndeg.cli", *argv],
            env=env, capture_output=True, text=True, timeout=row["timeout"],
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"{argv} ran past {row['timeout']} s")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _phi(n):
    return sum(math.gcd(j, n) == 1 for j in range(1, n + 1))


def _degrees(a, b, c, nmax):
    order = _ORDER.get(c * c / (a * b))
    degrees = []
    for k in range(1, nmax + 1):
        if order is None or k < order:
            degrees.append(2**k)
        else:
            degrees.append(sum(degrees[1 - order:]) + 1)
    return degrees


def _verdict(a, b, t, nmax):
    if t == 1:
        return "DegenerateDegreeOne", None
    e = Fraction(1)
    for n in range(nmax + 1):
        if e == t:
            return "HitsIndeterminacy", n
        e = a * e + b
    return "NoHitWithin", None


def test_recurrence_gives_the_known_sequences():
    assert _degrees(Fraction(1), Fraction(-1), Fraction(1), 8) == [2, 4, 7, 12, 20, 33, 54, 88]
    assert _degrees(Fraction(1), Fraction(-2), Fraction(2), 7) == [2, 4, 8, 15, 28, 52, 96]
    assert _degrees(Fraction(1), Fraction(-3), Fraction(3), 7) == [2, 4, 8, 16, 32, 63, 124]
    assert _degrees(Fraction(1), Fraction(1), Fraction(1), 3) == [2, 4, 8]


@_rows("degseq", "a", "b", "c", "modulus", "nmax")
def test_degseq(row):
    a, b, c = row["a"], row["b"], row["c"]
    doc = {"N": 2, "coords": ["X*Y", f"X*Y+{a}*Z^2", f"{b}*Y*Z+{c}*Z^2"]}
    if row["modulus"] is not None:
        doc["modulus"] = row["modulus"]
    out = _run(row, "degseq", "--map", json.dumps(doc), "--nmax", str(row["nmax"]))
    assert out["degrees"] == _degrees(Fraction(a), Fraction(b), Fraction(c), row["nmax"])


@_rows("fabc-intersect", "first", "second", "nmax")
def test_fabc_intersect(row):
    out = _run(
        row, "fabc-intersect", f"--first={row['first']}", f"--second={row['second']}",
        "--nmax", str(row["nmax"]),
    )
    size = sum(_phi(n) // row["k"] for n in range(3, row["nmax"] + 1))
    shared = size if row["intersection"] == "all" else row["intersection"]
    assert (out["first_size"], out["intersection_size"]) == (size, shared)


@_rows("fabc-locus", "a", "b", "c", "nmax")
def test_fabc_locus(row):
    out = _run(
        row, "fabc-locus", "-a", row["a"], "-b", row["b"], "-c", row["c"],
        "--nmax", str(row["nmax"]),
    )
    entries = out["entries"]
    assert [e["n"] for e in entries] == list(range(3, row["nmax"] + 1))
    assert [len(e["roots"]) for e in entries] == [_phi(e["n"]) // row["k"] for e in entries]


@_rows("gfam", "a", "b", "t", "nmax")
def test_gfam(row):
    out = _run(
        row, "gfam", "-a", row["a"], "-b", row["b"], "-t", row["t"], "--nmax", str(row["nmax"])
    )
    verdict = out["parameter"]
    a, b, t = (Fraction(row[k]) for k in "abt")
    assert (verdict["status"], verdict["n"]) == _verdict(a, b, t, row["nmax"])
