"""The benchmark's own checks: seeded generation, oracles, tracing, references."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import dyndeg.cli  # noqa: E402
from perfbench import run, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.worker import run_pass  # noqa: E402
from perfbench.workloads import Item, check, make_batch  # noqa: E402


def _answers(item: Item) -> list[tuple[int, str]]:
    out = []
    for argv in item.calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = dyndeg.cli.main(list(argv))
        out.append((code, buf.getvalue()))
    return out


def _first(workload: str, kind: str, **expect) -> Item:
    return next(
        i
        for i in make_batch(workload, workloads.DEFAULT_SEED)
        if i.kind == kind and all(i.expect.get(k) == v for k, v in expect.items())
    )


# -- generator ------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_batch_is_deterministic_per_seed(workload):
    assert make_batch(workload, 7) == make_batch(workload, 7)
    assert make_batch(workload, 7) != make_batch(workload, 8)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_batch_mix_does_not_depend_on_seed(workload):
    def mix(seed):
        return sorted(
            repr((i.kind, i.expect.get("order"), i.expect.get("hit"), i.expect.get("phi_equal")))
            for i in make_batch(workload, seed)
        )

    assert mix(1) == mix(2) == mix(99)


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        make_batch("nope", 1)


# -- oracles --------------------------------------------------------------


def _edit(results, index, **changes):
    code, out = results[index]
    doc = json.loads(out)
    doc.update(changes)
    edited = list(results)
    edited[index] = (code, json.dumps(doc))
    return edited


def _wrong_answers(item: Item, results):
    """Deliberately wrong variants of a right answer."""
    yield [(3, out) for _, out in results]
    yield [(code, "") for code, out in results]
    last = len(results) - 1
    doc = json.loads(results[last][1])
    if item.kind == "stable-grid":
        verdict = json.loads(results[0][1])
        flipped = "unstable" if verdict["status"] == "stable" else "stable"
        yield _edit(results, 0, status=flipped)
        yield _edit(results, 1, drop_at=3 if doc["drop_at"] is None else None)
        yield _edit(results, 1, degrees=doc["degrees"][:-1] + [doc["degrees"][-1] - 1])
    elif item.kind == "fabc-degseq":
        yield _edit(results, 0, degrees=doc["degrees"][:-1] + [doc["degrees"][-1] + 1])
        yield _edit(results, 0, drop_at=2)
    elif item.kind == "gfam-drop":
        yield _edit(results, 1, drop_at=doc["drop_at"] + 1)
        param = json.loads(results[0][1])["parameter"]
        yield _edit(results, 0, parameter={**param, "n": param["n"] + 1})
    elif item.kind == "locus":
        entries = [dict(e) for e in doc["entries"]]
        entries[-1]["roots"] = entries[-1]["roots"][:-1]
        yield _edit(results, 0, entries=entries)
        yield _edit(results, 0, entries=doc["entries"][:-1])
    elif item.kind == "intersect":
        yield _edit(results, 0, phi_equal=not doc["phi_equal"])
        yield _edit(results, 0, first_size=doc["first_size"] - 1)
        yield _edit(results, 0, intersection_size=doc["intersection_size"] - 1)
    elif item.kind == "suite":
        yield _edit(results, 0, ok=False)
        suites = [{**s, "total": s["total"] + 1} for s in doc["suites"]]
        yield _edit(results, 0, suites=suites)
    elif item.kind == "modp":
        table = [dict(r) for r in doc["table"]]
        row = next(r for r in table if r["m"] is not None)
        row["m"] += 1
        yield _edit(results, 0, table=table)
        yield _edit(results, 0, table=doc["table"][:-1])


ORACLE_CASES = [
    ("stable-grid", "stable-grid", {"status": "stable"}),
    ("stable-grid", "stable-grid", {"status": "unstable"}),
    ("drop-degseq", "fabc-degseq", {"order": 6}),
    ("drop-degseq", "gfam-drop", {"hit": 1}),
    ("families", "locus", {}),
    ("families", "intersect", {"phi_equal": True}),
    ("families", "intersect", {"phi_equal": False}),
    ("certify", "modp", {}),
]


@pytest.mark.parametrize("workload,kind,expect", ORACLE_CASES)
def test_oracle_accepts_right_and_rejects_wrong_answers(workload, kind, expect):
    item = _first(workload, kind, **expect)
    if kind in ("locus", "intersect"):
        item = dataclasses.replace(item, calls=tuple(c[:-1] + ("12",) for c in item.calls),
                                   expect={**item.expect, "nmax": 12})
    results = _answers(item)
    assert check(item, results) is None
    for wrong in _wrong_answers(item, results):
        assert check(item, wrong) is not None


def test_suite_oracle_rejects_wrong_answers():
    item = Item("suite", (("verify", "--suite", "unimodular", "--count", "5", "--seed", "3"),), {"total": 5})
    results = _answers(item)
    assert check(item, results) is None
    for wrong in _wrong_answers(item, results):
        assert check(item, wrong) is not None


# -- tracing --------------------------------------------------------------


def _cheap_items() -> list[Item]:
    small = Item("suite", (("verify", "--suite", "monomial", "--count", "20", "--seed", "5"),), {"total": 20})
    locus = _first("families", "locus")
    locus = dataclasses.replace(
        locus, calls=(locus.calls[0][:-1] + ("10",),), expect={"nmax": 10}
    )
    return [
        _first("stable-grid", "stable-grid", status="stable"),
        _first("stable-grid", "stable-grid", status="unstable"),
        _first("drop-degseq", "gfam-drop", hit=1),
        locus,
        small,
    ]


def test_traced_stdout_is_byte_identical_and_tracer_restores_bindings():
    import dyndeg.exactalg as exactalg
    import dyndeg.fabc as fabc

    items = _cheap_items()
    plain = run_pass(dyndeg.cli.main, items, check)
    originals = (dyndeg.cli.main, exactalg.MultiPoly.__mul__, fabc.poly_gcd, fabc.cos_min_poly)
    with Tracer() as tracer:
        assert fabc.poly_gcd is not originals[2] and fabc.cos_min_poly is not originals[3]
        traced = run_pass(dyndeg.cli.main, items, check)
    assert (dyndeg.cli.main, exactalg.MultiPoly.__mul__, fabc.poly_gcd, fabc.cos_min_poly) == originals
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digest"] == traced["digest"]
    stats = tracer.stats
    assert stats["cli.main"].calls == sum(len(i.calls) for i in items)
    for name in ("exactalg.mul", "exactalg.poly_gcd", "ratmap.degree_sequence", "cyclo.cos_min_poly",
                 "monomial.char_poly", "suites.run_suite"):
        assert stats[name].calls > 0, name
    # recursion counts once in inclusive time; self time never exceeds it
    gcd = stats["exactalg.poly_gcd"]
    assert gcd.self_s <= gcd.incl_s + 1e-9
    main_stat = stats["cli.main"]
    assert main_stat.incl_s <= traced["run_s"] + 1e-6
    total_self = sum(s.self_s for s in stats.values())
    assert total_self == pytest.approx(main_stat.incl_s, rel=1e-6)


def test_spans_nest_and_are_written(tmp_path):
    items = _cheap_items()[:1]
    with Tracer() as tracer:
        run_pass(dyndeg.cli.main, items, check)
    path = tmp_path / "spans.jsonl"
    tracer.write_spans(str(path))
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans and spans[0]["name"] == "cli.main" and spans[0]["parent"] == -1
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


# -- references against sympy (tests only) ----------------------------------


def _sympy_degrees(coords, n_max):
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("X Y Z")
    gens = (x, y, z)
    f = [sympy.Poly(sympy.sympify(c.replace("^", "**")), *gens) for c in coords]
    current = f
    degrees = [f[0].total_degree()]
    for _ in range(n_max - 1):
        values = dict(zip(gens, (c.as_expr() for c in current)))
        raw = [sympy.Poly(sympy.expand(p.as_expr().subs(values, simultaneous=True)), *gens) for p in f]
        common = reduce(sympy.gcd, raw)
        current = [sympy.div(r, common)[0] for r in raw]
        degrees.append(max(c.total_degree() for c in current if not c.is_zero))
    return degrees


@pytest.mark.parametrize("order,triple", [(3, (1, -1, 1)), (4, (1, Fraction(-1, 2), 1)), (6, (1, Fraction(-1, 3), 1))])
def test_order_class_reference_agrees_with_sympy(order, triple):
    a, b, c = triple
    assert workloads.fabc_verdict(Fraction(a), Fraction(b), Fraction(c)) == ("unstable", order)
    coords = json.loads(workloads.fabc_map(a, b, c))["coords"]
    assert _sympy_degrees(coords, 4) == list(workloads.ORDER_CLASS_DEGREES[order][:4])


def test_gfam_hit_reference_agrees_with_sympy():
    a, b, k = 1, 1, 1
    t = workloads.gfam_orbit(a, b, k)[k]
    coords = json.loads(workloads.gfam_map(a, b, t))["coords"]
    degrees = _sympy_degrees(coords, k + 1)
    assert degrees[:k] == [2**n for n in range(1, k + 1)] and degrees[k] < 2 ** (k + 1)


def test_locus_size_reference_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    assert [workloads.euler_phi(n) for n in range(1, 61)] == [sympy.totient(n) for n in range(1, 61)]
    assert workloads.locus_size(30) == 276
    t, w = sympy.symbols("T w")
    lam = Fraction(4, -3)  # the family a = 1, b = -3, c = 2*T
    size = 0
    for n in range(3, 11):
        psi = sympy.minimal_polynomial(2 * sympy.cos(2 * sympy.pi / n), w)
        num = sympy.Poly(sympy.numer(sympy.together(psi.subs(w, -2 - sympy.Rational(lam.numerator, lam.denominator) * t**2))), t)
        squarefree = sympy.Poly(sympy.quo(num, sympy.gcd(num, num.diff(t))), t)
        assert squarefree.eval(0) != 0
        size += squarefree.degree()
    assert size == workloads.locus_size(10)


def test_modp_reference_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    assert workloads.primes_upto(200) == list(sympy.primerange(2, 201))


# -- the result contract ------------------------------------------------------


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["command"][1:] == ["perfbench/run.py"] and spec["paths"] == ["perfbench"]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode != 0 and done.stdout == ""
