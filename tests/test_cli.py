"""Command-line interface: subcommands, JSON schemas, exit codes, determinism."""

import argparse
import json
import math
import os
import re
import subprocess
import sys

import pytest

import dyndeg
from dyndeg import cli
from dyndeg.cli import main

SRC = os.path.dirname(os.path.dirname(dyndeg.__file__))

UNSTABLE_MAP = '{"N":2,"coords":["X*Y","X*Y+Z^2","-1*Y*Z+Z^2"]}'
STABLE_MAP = '{"N":2,"coords":["X*Y","X*Y+Z^2","Y*Z+Z^2"]}'
# f^2 = [0 : 0 : Z^4], and every later iterate is constant too
DEGREE_ZERO_MAP = '{"N":2,"coords":["0","X*Y","Z^2"]}'
# f = [XZ : X^2 : 0] reduces to [Z : X : 0], f^2 = [0 : Z : 0], f^3 = 0
ZERO_FORMS_MAP = '{"N":2,"coords":["X*Z","X^2","0"]}'
# (2^70, -2, 2^36) at order 4: its line declines at the drop n = 4, and
# f^2, f^3 and f^4 are composed in slots of 144, 288 and 504 bits
WIDE_SLOT_MAP = json.dumps(
    {"N": 2, "coords": ["X*Y", f"X*Y+{2**70}*Z^2", f"-2*Y*Z+{2**36}*Z^2"]}
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == "" or code != 0
    return code, json.loads(out) if out else None


class TestDegseq:
    def test_unstable_example(self, capsys):
        code, doc = run_json(
            capsys, "degseq", "--map", UNSTABLE_MAP, "--nmax", "4"
        )
        assert code == 0
        assert doc["schema"] == 1
        assert doc["degrees"] == [2, 4, 7, 12]
        assert doc["drop_at"] == 3
        assert doc["truncated_at"] is None

    def test_stable_example(self, capsys):
        code, doc = run_json(capsys, "degseq", "--map", STABLE_MAP, "--nmax", "4")
        assert code == 0
        assert doc["degrees"] == [2, 4, 8, 16]
        assert doc["drop_at"] is None
        assert doc["root_estimate"] == pytest.approx(2.0)

    def test_default_nmax_is_five(self, capsys):
        code, doc = run_json(capsys, "degseq", "--map", STABLE_MAP)
        assert code == 0 and doc["nmax"] == 5 and len(doc["degrees"]) == 5

    @pytest.mark.parametrize("command", ["degseq", "stability"])
    def test_nmax_below_one_exits_two(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--map", UNSTABLE_MAP, "--nmax", "0")
        assert (code, out, err) == (2, "", "error: n_max must be >= 1\n")


class TestStability:
    def test_stable_and_unstable(self, capsys):
        code, doc = run_json(capsys, "stability", "--map", STABLE_MAP, "--nmax", "4")
        assert code == 0 and doc["stable_up_to"] == 4 and doc["drop_at"] is None
        code, doc = run_json(capsys, "stability", "--map", UNSTABLE_MAP, "--nmax", "4")
        assert code == 0 and doc["stable_up_to"] is None and doc["drop_at"] == 3


class TestResourceCap:
    def test_degseq_truncated(self, capsys, monkeypatch):
        # the unstable map's line declines at its drop n = 3, which composes
        monkeypatch.setenv("DYNDEG_TERM_CAP", "10")
        code, doc = run_json(capsys, "degseq", "--map", UNSTABLE_MAP, "--nmax", "4")
        assert code == 3
        assert doc["degrees"] == [2, 4] and doc["truncated_at"] == 3

    def test_degseq_certified_steps_pass_the_cap(self, capsys, monkeypatch):
        # a stable map's steps are certified on a line and compose nothing,
        # so the cap bounds no work and never truncates
        monkeypatch.setenv("DYNDEG_TERM_CAP", "10")
        code, doc = run_json(capsys, "degseq", "--map", STABLE_MAP, "--nmax", "6")
        assert code == 0
        assert doc["degrees"] == [2**n for n in range(1, 7)]
        assert doc["truncated_at"] is None

    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "DYNDEG_TERM_CAP must be an integer, got 'abc'"),
            ("0", "DYNDEG_TERM_CAP must be positive"),
        ],
        ids=["abc", "0"],
    )
    def test_bad_cap_exits_two(self, capsys, monkeypatch, value, message):
        monkeypatch.setenv("DYNDEG_TERM_CAP", value)
        code, out, err = run_cli(capsys, "degseq", "--map", UNSTABLE_MAP, "--nmax", "4")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_suite_cap_exits_three_without_traceback(self, capsys, monkeypatch):
        monkeypatch.setenv("DYNDEG_TERM_CAP", "10")
        code, out, err = run_cli(capsys, "verify", "--suite", "gfam")
        assert code == 3
        assert out == ""
        assert err == "error: term cap 10 exceeded at iterate 2\n"


class TestFabcClassify:
    def test_unstable_schema(self, capsys):
        code, doc = run_json(capsys, "fabc-classify", "-a", "1", "-b", "-1", "-c", "1")
        assert code == 0
        assert doc["status"] == "unstable"
        assert doc["zeta_order"] == 3
        assert doc["vanishing_index"] == 2

    def test_stable_schema(self, capsys):
        code, doc = run_json(capsys, "fabc-classify", "-a", "1", "-b", "1", "-c", "1")
        assert code == 0
        assert doc["status"] == "stable"
        assert doc["zeta_order"] is None

    def test_rational_inputs(self, capsys):
        code, doc = run_json(
            capsys, "fabc-classify", "-a", "1/2", "-b", "-1", "-c", "1"
        )
        assert code == 0 and doc["status"] == "unstable" and doc["zeta_order"] == 4


class TestFabcModp:
    def test_single_prime(self, capsys):
        code, doc = run_json(
            capsys, "fabc-modp", "-a", "-2", "-b", "1", "-c", "3", "-p", "7"
        )
        assert code == 0
        assert doc["p"] == 7 and doc["m"] == 2 and doc["status"] == "ExceptionalAt"

    def test_prime_table(self, capsys):
        code, doc = run_json(
            capsys, "fabc-modp", "-a", "-2", "-b", "1", "-c", "3", "--pmax", "31"
        )
        assert code == 0
        rows = {r["p"]: r for r in doc["table"]}
        assert rows[2]["status"] == "DegenerateModP"
        assert rows[3]["status"] == "DegenerateModP"
        assert rows[5]["m"] == 3
        assert rows[7]["m"] == 2
        assert rows[11]["m"] == 9
        assert rows[31]["m"] == 4
        assert [r["p"] for r in doc["table"]] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]

    def test_cap_exit_code(self, capsys):
        code, doc = run_json(
            capsys, "fabc-modp", "-a", "-2", "-b", "1", "-c", "3",
            "-p", "5", "--cap", "2",
        )
        assert code == 3
        assert doc["status"] == "NotFoundWithinCap"

    def test_requires_exactly_one_mode(self, capsys):
        code, _, err = run_cli(capsys, "fabc-modp", "-a", "1", "-b", "1", "-c", "1")
        assert code == 2 and "error" in err
        code, _, err = run_cli(
            capsys, "fabc-modp", "-a", "1", "-b", "1", "-c", "1",
            "-p", "5", "--pmax", "7",
        )
        assert code == 2

    def test_non_prime_names_the_modulus(self, capsys):
        code, out, err = run_cli(
            capsys, "fabc-modp", "-a", "1", "-b", "1", "-c", "1", "-p", "1"
        )
        assert (code, out, err) == (2, "", "error: modulus 1 is not prime\n")


class TestFabcLocus:
    def test_documented_shape(self, capsys):
        code, doc = run_json(
            capsys, "fabc-locus", "-a", "1", "-b", "1", "-c", "T", "--nmax", "6"
        )
        assert code == 0
        assert doc["truncation"] == 6
        assert doc["generic_status"] == "GenericallyStable"
        first = doc["entries"][0]
        assert first["n"] == 3
        assert first["poly"] == "T^2 + 1"
        assert sorted(r["im"] for r in first["roots"]) == [-1.0, 1.0]
        assert first["heights"] == [0.0, 0.0]
        assert doc["zeta_one_poly"] == "T^2 + 4"
        # abc = T vanishes at t = 0, so that value is set aside as degenerate
        assert doc["degenerate_params"] == [{"im": 0.0, "re": 0.0}]

    @pytest.mark.parametrize(
        "a, b, c, expected",
        [
            # abc = (T - 1)^3: numpy's roots of the cube split t = 1 into
            # three perturbed floats
            ("T^2-2*T+1", "1", "T-1", [(1.0, 0.0)]),
            ("T", "1/2", "3*T", [(0.0, 0.0)]),
            # abc = (T^2 + 1)^2
            ("T^2+1", "T^2+1", "1", [(0.0, -1.0), (0.0, 1.0)]),
        ],
    )
    def test_repeated_degenerate_parameter_is_listed_once(self, capsys, a, b, c, expected):
        # the roots of abc's squarefree part give each degenerate t once
        code, doc = run_json(capsys, "fabc-locus", "-a", a, "-b", b, "-c", c, "--nmax", "6")
        assert code == 0
        assert doc["degenerate_params"] == [{"im": im, "re": re} for re, im in expected]

    def test_default_truncation_thirty(self, capsys):
        code, doc = run_json(capsys, "fabc-locus", "-a", "1", "-b", "1", "-c", "T")
        assert code == 0 and doc["truncation"] == 30

    def test_generically_unstable_family_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "fabc-locus", "-a", "1", "-b", "-1", "-c", "1"
        )
        assert code == 2 and "error" in err

    def test_coefficients_past_the_float_range(self, capsys):
        sympy = pytest.importorskip("sympy")
        code, doc = run_json(
            capsys, "fabc-locus", "-a", str(10**30), "-b", "1", "-c", "T", "--nmax", "40"
        )
        assert code == 0
        for entry in doc["entries"]:
            values = [r["re"] for r in entry["roots"]] + [r["im"] for r in entry["roots"]]
            assert all(map(math.isfinite, values + entry["heights"]))
        # the order-23 slice has coefficients near 10^330, so its roots come
        # from the rescaled polynomial; sympy gets it at T = 10^15 u, a scale
        # of its own, since it converges slowly on the raw coefficients
        entry = next(e for e in doc["entries"] if e["n"] == 23)
        t, u = sympy.symbols("T u")
        poly = sympy.Poly(sympy.sympify(entry["poly"].replace("^", "**")), t)
        assert max(abs(c) for c in poly.all_coeffs()) > 10**308
        scaled = sympy.Poly(poly.as_expr().subs(t, 10**15 * u), u)
        expected = sorted(abs(complex(r)) * 10**15 for r in scaled.nroots(n=15))
        got = sorted(abs(complex(r["re"], r["im"])) for r in entry["roots"])
        assert len(got) == len(expected)
        assert all(abs(g - e) <= 1e-6 * e for g, e in zip(got, expected))


class TestFabcIntersect:
    @pytest.mark.parametrize(
        "first, second, option, count",
        [
            ("1;1;T", "1;2", "--second", 2),
            ("1;1;T;3", "1;2;T", "--first", 4),
        ],
    )
    def test_wrong_part_count_names_the_option(
        self, capsys, first, second, option, count
    ):
        code, out, err = run_cli(
            capsys, "fabc-intersect", f"--first={first}", f"--second={second}"
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: {option} must be three ';'-separated polynomials a;b;c "
            f"in T, not {count}\n"
        )

    def test_same_family(self, capsys):
        code, doc = run_json(
            capsys, "fabc-intersect", "--first", "1;1;T", "--second", "1;1;T",
            "--nmax", "8",
        )
        assert code == 0
        assert doc["phi_equal"] is True
        assert doc["symmetric_difference_size"] == 0
        assert doc["intersection_size"] == doc["first_size"]

    def test_scaled_family(self, capsys):
        code, doc = run_json(
            capsys, "fabc-intersect", "--first", "1;1;T", "--second", "1;1;2*T",
            "--nmax", "8",
        )
        assert code == 0
        assert doc["phi_equal"] is False
        assert doc["intersection_size"] == 0
        assert doc["overlaps"] == []


class TestGfam:
    def test_prefix_schema(self, capsys):
        code, doc = run_json(capsys, "gfam", "-a", "1", "-b", "2", "--nmax", "6")
        assert code == 0
        assert doc["a"] == "1" and doc["b"] == "2"
        assert doc["exceptional_prefix"] == [1, 3, 5, 7, 9, 11, 13]

    def test_parameter_verdict(self, capsys):
        code, doc = run_json(
            capsys, "gfam", "-a", "1", "-b", "1", "-t", "5", "--nmax", "50"
        )
        assert code == 0
        assert doc["parameter"]["status"] == "HitsIndeterminacy"
        assert doc["parameter"]["n"] == 4
        code, doc = run_json(
            capsys, "gfam", "-a", "1", "-b", "1", "-t", "1", "--nmax", "10"
        )
        assert doc["parameter"]["status"] == "DegenerateDegreeOne"

    def test_report(self, capsys):
        code, doc = run_json(capsys, "gfam", "--report", "--nmax", "10")
        assert code == 0
        assert doc["intersection"] == [1, 3, 5, 7, 9]
        assert doc["symmetric_difference"] == [2, 4, 6, 8, 10]
        assert doc["sparse_set"] == [1, 2, 4, 8]
        assert doc["max_height"] == pytest.approx(math.log(10))

    def test_zero_multiplier(self, capsys):
        code, _, err = run_cli(capsys, "gfam", "-a", "0", "-b", "1")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "args, err",
        [
            (["--nmax", "-1"], "error: n_max must be >= 0\n"),
            (["-t", "3", "--nmax", "-1"], "error: n_max must be >= 0\n"),
            (["--report", "--nmax", "0"], "error: n_max must be >= 1\n"),
        ],
    )
    def test_step_bound_exits_two(self, capsys, args, err):
        assert run_cli(capsys, "gfam", *args) == (2, "", err)


class TestMonomial:
    def test_full_report(self, capsys):
        code, doc = run_json(capsys, "monomial", "--matrix", "[[2,1],[1,1]]")
        assert code == 0
        assert doc["N"] == 2 and doc["D"] == 3
        assert doc["char_poly"] == [1, -3, 1]
        golden_sq = (1 + math.sqrt(5)) ** 2 / 4
        assert doc["lambda"] == pytest.approx(golden_sq, rel=1e-6)
        assert doc["lambda_interval"][0] <= golden_sq <= doc["lambda_interval"][1]
        assert doc["contraction_k"] == 0
        assert doc["norm_equivalence"] is True
        assert doc["degree_ratio_bound"]["holds"] is True
        assert doc["inverse_degree_bound"] is True

    def test_rows_wrapper_and_singular(self, capsys):
        code, doc = run_json(capsys, "monomial", "--matrix", '{"rows":[[0,1],[1,0]]}')
        assert code == 0 and doc["lambda"] == pytest.approx(1.0)
        code, _, err = run_cli(capsys, "monomial", "--matrix", "[[1,1],[1,1]]")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("rel_tol", ["1e-150", "1e-16"])
    def test_rel_tol_out_of_range_exits_two(self, capsys, rel_tol):
        code, out, err = run_cli(
            capsys, "monomial", "--matrix", "[[2,1],[1,1]]", "--rel-tol", rel_tol
        )
        assert (code, out) == (2, "")
        assert err == f"error: rel_tol must lie in [{sys.float_info.epsilon!r}, 1e-3]\n"

    def test_report_when_only_the_radius_bound_passes_the_float_range(self, capsys):
        # lambda = 1e155 fits a float although the char poly's 1e310 does not
        rows = [[10**155, 0], [0, 10**155]]
        code, doc = run_json(capsys, "monomial", "--matrix", json.dumps(rows))
        assert code == 0
        assert doc["char_poly"] == [1, -2 * 10**155, 10**310]
        low, high = doc["lambda_interval"]
        assert low <= 1e155 <= high
        assert doc["lambda"] == pytest.approx(1e155, rel=1e-6)

    @pytest.mark.parametrize("rows", [[[10**400, 1], [1, 1]], [[10**310]]])
    def test_values_past_the_float_range_exit_two(self, capsys, rows):
        code, out, err = run_cli(capsys, "monomial", "--matrix", json.dumps(rows))
        assert (code, out) == (2, "")
        assert err.startswith("error: matrix values pass the float range: ")
        assert err.count("\n") == 1


class TestVerify:
    def test_monomial_suite_passes(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--suite", "monomial", "--count", "25", "--seed", "42"
        )
        assert code == 0
        assert doc["ok"] is True
        assert doc["seed"] == 42
        assert doc["suites"][0]["passed"] == 25

    def test_gfam_suite(self, capsys):
        code, doc = run_json(capsys, "verify", "--suite", "gfam")
        assert code == 0 and doc["ok"] is True

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
        assert code == 2


class TestPlumbing:
    def test_byte_identical_determinism(self, capsys):
        args = ("verify", "--suite", "monomial", "--count", "10", "--seed", "3")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert (code1, out1) == (code2, out2)
        args = ("fabc-locus", "-a", "1", "-b", "1", "-c", "T", "--nmax", "8")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        # degseq of an unstable fabc map, in two interpreters whose string
        # hashes (and so set and dict orders) differ
        script = "import sys; from dyndeg.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = [sys.executable, "-c", script, "degseq", "--map", UNSTABLE_MAP]
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            proc = subprocess.run(argv, env=env, capture_output=True, check=True)
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and json.loads(outs[0])["drop_at"] == 3

    def test_invalid_inputs_exit_two(self, capsys):
        assert run_cli(capsys, "degseq", "--map", "not json")[0] == 2
        assert run_cli(capsys, "degseq", "--map", '{"N":2,"coords":["X"]}')[0] == 2
        assert run_cli(capsys, "fabc-classify", "-a", "0", "-b", "1", "-c", "1")[0] == 2
        assert run_cli(capsys, "fabc-classify", "-a", "x", "-b", "1", "-c", "1")[0] == 2
        assert run_cli(capsys, "nonsense")[0] == 2
        assert run_cli(capsys, "degseq", "--map", STABLE_MAP, "--badflag")[0] == 2
        assert run_cli(capsys, "fabc-modp", "-a", "1", "-b", "1", "-c", "1", "-p", "6")[0] == 2

    def test_denominator_vanishing_mod_p_exits_two(self, capsys):
        doc = '{"N":2,"coords":["X*Y","X*Y+3*Z^2","1/7*Y*Z+3*Z^2"],"modulus":7}'
        code, out, err = run_cli(capsys, "degseq", "--map", doc, "--nmax", "4")
        assert (code, out, err) == (2, "", "error: denominator vanishes mod p\n")

    def test_strong_pseudoprime_modulus_exits_two(self, capsys):
        n = 399165290221 * 798330580441  # passes Miller-Rabin to bases 2..37
        doc = json.loads(STABLE_MAP)
        doc["modulus"] = n
        code, out, err = run_cli(capsys, "degseq", "--map", json.dumps(doc))
        assert (code, out) == (2, "") and "not prime" in err

    @pytest.mark.parametrize("modulus", [2.5, "7"])
    def test_non_integer_modulus_exits_two(self, capsys, modulus):
        doc = json.loads(STABLE_MAP)
        doc["modulus"] = modulus
        code, out, err = run_cli(capsys, "degseq", "--map", json.dumps(doc))
        assert (code, out) == (2, "")
        assert err == f"error: modulus {modulus!r} is not an integer\n"

    def test_zero_denominator_exits_two(self, capsys):
        doc = '{"N":2,"coords":["1/0*X*Y","X*Y+Z^2","Y*Z+Z^2"]}'
        code, out, err = run_cli(capsys, "degseq", "--map", doc)
        assert (code, out, err) == (2, "", "error: zero denominator\n")
        code, out, err = run_cli(capsys, "fabc-locus", "-a", "1", "-b", "1", "-c", "1/0*T")
        assert (code, out, err) == (2, "", "error: zero denominator\n")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"N":"2","coords":["X","Y","Z"]}', '"N" must be an integer >= 1'),
            ('{"N":true,"coords":["X","Y"]}', '"N" must be an integer >= 1'),
            ('{"coords":[1,2,"Z"]}', '"coords" must be a list of strings'),
        ],
    )
    def test_ill_typed_map_document_names_the_field(self, capsys, doc, message):
        code, out, err = run_cli(capsys, "degseq", "--map", doc)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "matrix, entry",
        [
            ("[[1.5,0],[0,1]]", "1.5"),
            ("[[1.0,0],[0,1]]", "1.0"),
            ('[["2",0],[0,1]]', "'2'"),
            ("[[true,0],[0,1]]", "True"),
            ("[[1e400,0],[0,1]]", "inf"),
        ],
    )
    def test_non_integer_matrix_entry_exits_two(self, capsys, matrix, entry):
        code, out, err = run_cli(capsys, "monomial", "--matrix", matrix)
        assert (code, out) == (2, "")
        assert err == f"error: matrix entry {entry} is not an integer\n"

    @pytest.mark.parametrize(
        "matrix, row", [("[1,2]", "1"), ("[[1,2],3]", "3"), ('["12","34"]', "'12'")]
    )
    def test_non_list_matrix_row_exits_two(self, capsys, matrix, row):
        code, out, err = run_cli(capsys, "monomial", "--matrix", matrix)
        assert (code, out, err) == (2, "", f"error: matrix row {row} is not a list\n")

    @pytest.mark.parametrize(
        "command, option, doc, message",
        [
            ("degseq", "--map", "[1]", 'map document must be a JSON object with a "coords" list'),
            ("monomial", "--matrix", '{"rows": 5}',
             'matrix document must be a JSON array or {"rows": [...]}'),
        ],
        ids=["map", "matrix"],
    )
    def test_non_object_document_exits_two(self, capsys, command, option, doc, message):
        code, out, err = run_cli(capsys, command, option, doc)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_iterate_of_degree_zero(self, capsys):
        # f^2 = [0 : 0 : Z^4] is constant, and so is every later iterate:
        # both estimates read 0, not 0/0
        code, doc = run_json(capsys, "degseq", "--map", DEGREE_ZERO_MAP, "--nmax", "3")
        assert code == 0
        assert doc["degrees"] == [2, 0, 0] and doc["drop_at"] == 2
        assert doc["ratio_estimate"] == 0.0 and doc["root_estimate"] == 0.0

    def test_iterate_with_only_zero_forms_names_it(self, capsys):
        # f = [XZ : X^2 : 0] reduces to [Z : X : 0], f^2 = [0 : Z : 0] and
        # f^3 = [0 : 0 : 0]
        code, out, err = run_cli(capsys, "degseq", "--map", ZERO_FORMS_MAP, "--nmax", "4")
        assert (code, out) == (2, "")
        assert err == "error: f^3: all coordinate forms are zero (the map is not dominant)\n"

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("command", ["degseq", "stability"])
    @pytest.mark.parametrize(
        "coords", [["0", "0", "X"], ["X^2", "X^2", "X^2"]]
    )
    def test_constant_map_exits_two(self, capsys, command, coords):
        doc = json.dumps({"N": 2, "coords": coords})
        code, out, err = run_cli(capsys, command, "--map", doc, "--nmax", "3")
        assert (code, out) == (2, "")
        assert err == (
            "error: the map is constant: its forms have degree 0 after "
            "cancelling their common factor\n"
        )

    def test_parser_built_once_and_reused(self, capsys, monkeypatch):
        calls = [
            ["degseq", "--map", UNSTABLE_MAP, "--nmax", "4"],
            ["degseq", "--map", STABLE_MAP, "--badflag"],
            ["--help"],
            ["fabc-classify", "-a", "1", "-b", "-2", "-c", "2"],
        ]
        fresh = []
        for argv in calls:
            monkeypatch.setattr(cli, "_PARSER", None)
            fresh.append(run_cli(capsys, *argv)[:2])
        assert [code for code, _ in fresh] == [0, 2, 0, 0]
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        shared = [run_cli(capsys, *argv)[:2] for argv in calls]
        assert shared == fresh
        assert len(builds) == 1

    def test_human_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "human", "fabc-classify", "-a", "1", "-b", "-2", "-c", "2"
        )
        assert code == 0
        assert "status: unstable" in out
        assert "zeta_order: 4" in out

    def test_human_format_walks_nested_lists(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "human", "fabc-locus", "-a", "1", "-b", "1", "-c", "T",
            "--nmax", "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert "entries[0].poly: T^2 + 1" in lines
        assert "entries[1].roots[0].im: -1.4142135623730951" in lines
        assert "entries[1].heights: [0.3465735902799727, 0.3465735902799727]" in lines


class TestNegativeValues:
    """A value that starts with '-' but is no plain number (-1/2, -3*T) is
    still read as the option's value when it comes as a separate argument."""

    @pytest.mark.parametrize(
        "argv, option, key, value",
        [
            (["fabc-classify", "-a", "2", "-b", "-1/2", "-c", "1"], "-b", "b", "-1/2"),
            (["gfam", "-a", "1", "-b", "-3/2", "--nmax", "6"], "-b", "b", "-3/2"),
            (["gfam", "-a", "-1/2", "-b", "1", "-t", "-7/4", "--nmax", "6"], "-t", None, None),
            (["fabc-locus", "-a", "1", "-b", "2", "-c", "-3*T", "--nmax", "8"], "-c", None, None),
            (["fabc-intersect", "--first", "-1;T;2", "--second", "1;2;T", "--nmax", "6"],
             "--first", None, None),
        ],
    )
    def test_separate_negative_value(self, capsys, argv, option, key, value):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        if key is not None:
            assert json.loads(out)[key] == value
        i = argv.index(option)
        joined = argv[:i] + [f"{option}={argv[i + 1]}"] + argv[i + 2:]
        assert run_cli(capsys, *joined) == (0, out, "")

    def test_locus_of_negative_coefficient(self, capsys):
        code, doc = run_json(
            capsys, "fabc-locus", "-a", "1", "-b", "2", "-c", "-3*T", "--nmax", "6"
        )
        assert code == 0
        assert doc["entries"][0]["poly"] == "9*T^2 + 2"

    def test_unknown_option_still_refused(self, capsys):
        code, _, err = run_cli(capsys, "fabc-classify", "-a", "2", "-x", "-1/2", "-c", "1")
        assert code == 2 and "error:" in err


# one call of every subcommand and mode, with the exit code it gives
SCHEMA_CASES = [
    (["degseq", "--map", UNSTABLE_MAP, "--nmax", "3"], 0),
    (["stability", "--map", STABLE_MAP, "--nmax", "3"], 0),
    (["fabc-classify", "-a", "1", "-b", "-2", "-c", "2"], 0),
    (["fabc-modp", "-a", "-2", "-b", "1", "-c", "3", "-p", "7"], 0),
    (["fabc-modp", "-a", "-2", "-b", "1", "-c", "3", "-p", "7", "--cap", "1"], 3),
    (["fabc-modp", "-a", "-2", "-b", "1", "-c", "3", "--pmax", "13"], 0),
    (["fabc-locus", "-a", "1", "-b", "1", "-c", "T", "--nmax", "5"], 0),
    (["fabc-intersect", "--first", "1;1;T", "--second", "1;2;T", "--nmax", "5"], 0),
    (["gfam", "-a", "1", "-b", "2", "--nmax", "4"], 0),
    (["gfam", "-a", "1", "-b", "1", "-t", "5", "--nmax", "6"], 0),
    (["gfam", "--report", "--nmax", "6"], 0),
    (["monomial", "--matrix", "[[2,1],[1,1]]"], 0),
    (["verify", "--suite", "gfam"], 0),
]


def test_schema_cases_cover_every_subcommand():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv, _ in SCHEMA_CASES} == set(subparsers.choices)


@pytest.mark.parametrize("fmt", ["json", "human"])
@pytest.mark.parametrize(
    "argv, want", SCHEMA_CASES, ids=[f"{i}-{a[0]}" for i, (a, _) in enumerate(SCHEMA_CASES)]
)
def test_every_payload_carries_schema_one_once(capsys, fmt, argv, want):
    code, out, err = run_cli(capsys, "--format", fmt, *argv)
    assert (code, err) == (want, "")
    if fmt == "json":
        assert out.count('"schema"') == 1 and json.loads(out)["schema"] == 1
    else:
        assert [line for line in out.splitlines() if line.startswith("schema")] == [
            "schema: 1"
        ]


with open(os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[f"{i}-{c['argv'][0]}" for i, c in enumerate(GOLDEN)]
)
def test_golden_stdout(capsys, case):
    """Exact stdout, byte for byte, of commands whose answers carry exact
    rationals, so a change of their printed form (say `3/1` for `3`) fails.
    The fabc-locus case also pins the float roots and heights that numpy's
    eigenvalue solver gives for it."""
    code, out, err = run_cli(capsys, *case["argv"])
    assert (code, out, err) == (0, case["stdout"], "")


def test_every_composition_of_integer_forms_packs(capsys, monkeypatch, composition_paths):
    """At the default cap no composition of these runs takes the sparse
    loop: the golden degseq and stability cases, the 2^70 row with slots
    past 256 bits and the two maps with zero forms.  Under a cap of 10
    the 2^70 row's f^2 could pass the cap, so it composes on the sparse
    loop, which counts its terms as it goes, and degseq exits 3."""
    golden = [c["argv"] for c in GOLDEN if c["argv"][0] in ("degseq", "stability")]
    runs = [(argv, 0) for argv in golden] + [
        (["degseq", "--map", WIDE_SLOT_MAP, "--nmax", "4"], 0),
        (["degseq", "--map", DEGREE_ZERO_MAP, "--nmax", "3"], 0),
        (["degseq", "--map", ZERO_FORMS_MAP, "--nmax", "4"], 2),
    ]
    for argv, want in runs:
        packed = composition_paths["packed"]
        assert run_cli(capsys, *argv)[0] == want
        assert composition_paths["sparse"] == 0, argv
        assert composition_paths["packed"] > packed, argv
    monkeypatch.setenv("DYNDEG_TERM_CAP", "10")
    assert run_cli(capsys, "degseq", "--map", WIDE_SLOT_MAP, "--nmax", "4")[0] == 3
    assert composition_paths["sparse"] > 0


# the prime-field element class removed in 0.2.0, the wrappers removed in
# 0.3.0 and 0.4.0 (with the orbit record), and the division paths the one
# long division replaced, with the module or class each lived in
_REMOVED = {
    "Fp": dyndeg.exactalg,
    "spectral_radius": dyndeg.monomial,
    "find_k_contraction": dyndeg.monomial,
    "degree_ratio_lower_bound": dyndeg.monomial,
    "find_m_epsilon": dyndeg.monomial,
    "build_map_symbolic": dyndeg.fabc,
    "inverse_map_symbolic": dyndeg.fabc,
    "critical_locus_symbolic": dyndeg.fabc,
    "identity_map": dyndeg.ratmap,
    "is_dominant": dyndeg.ratmap.ProjectiveMap,
    "Orbit": dyndeg.ratmap,
    "substitute": dyndeg.exactalg.MultiPoly,
    "power": dyndeg.monomial,
    "reason": dyndeg.fabc.StabilityVerdict,
    "poly_gcd_many": dyndeg.exactalg,
    "jacobian_det": dyndeg.exactalg,
    "_poly_matrix_det": dyndeg.exactalg,
    "constant_value": dyndeg.exactalg.MultiPoly,
    "preimage": dyndeg.fabc,
    "PreimagePoint": dyndeg.fabc,
    "PreimageLine": dyndeg.fabc,
    "PreimageEmpty": dyndeg.fabc,
    "PreimageResult": dyndeg.fabc,
    "inverse_map": dyndeg.fabc,
    "specialize": dyndeg.fabc.FamilyParams,
    "cyclotomic": dyndeg.cyclo,
    "is_root_of_unity": dyndeg.cyclo,
    "rational_two_cos_values": dyndeg.cyclo,
    "compose": dyndeg.ratmap.ProjectiveMap,
    "_divide_rows": dyndeg.exactalg,
    "_heap_key": dyndeg.exactalg,
    "heapq": dyndeg.exactalg,
}


def test_public_names_resolve_and_versions_agree():
    """Every exported name exists, no name in _REMOVED is exported or left
    in its module, and the package version matches pyproject.toml (read
    with a regex: Python 3.10 has no tomllib)."""
    assert all(hasattr(dyndeg, name) for name in dyndeg.__all__)
    for name, home in _REMOVED.items():
        assert name not in dyndeg.__all__ and not hasattr(dyndeg, name), name
        assert not hasattr(home, name), name
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml")) as fh:
        match = re.search(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE)
    assert match and match.group(1) == dyndeg.__version__
