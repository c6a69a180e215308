"""Command-line front end: every library component behind one executable.

Subcommands map one-to-one onto library calls and print a single JSON
document (default) or a human-readable digest.  Output is deterministic:
the same argv and seed produce byte-identical JSON.  Exit codes: 0 on
success, 1 when a `verify` suite finds a genuine property failure, 2 on
invalid input, 3 when a resource cap cuts a computation short.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .exactalg import TermCapExceeded, format_poly, is_prime, parse_poly
from .fabc import (
    FabcParams,
    FamilyParams,
    classify,
    classify_mod_p,
    family_exceptional_locus,
    family_generic_stability,
    unlikely_intersection_explorer,
)
from .gfam import (
    GFamilyParams,
    classify_parameter,
    exceptional_set,
    negative_answer_report,
)
from .monomial import MonomialMap, full_report
from .ratmap import (
    DegreeSequence,
    ProjectiveMap,
    degree_sequence,
    dyndeg_estimate,
    first_drop,
)
from .suites import DEFAULT_SEED, available_suites, run_suite

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_RESOURCE_CAP = 3

# the parse, domain and degenerate-parameter errors are ValueErrors too
_INPUT_ERRORS = (ValueError, TypeError, KeyError, ZeroDivisionError)


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _parse_map_document(text: str) -> ProjectiveMap:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "coords" not in doc:
        raise ValueError('map document must be a JSON object with a "coords" list')
    coords = doc["coords"]
    if not isinstance(coords, list) or not all(isinstance(c, str) for c in coords):
        raise ValueError('"coords" must be a list of strings')
    n = doc.get("N", len(coords) - 1)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError('"N" must be an integer >= 1')
    if len(coords) != n + 1:
        raise ValueError("coords must list exactly N+1 forms")
    modulus = doc.get("modulus")
    num_vars = n + 1
    polys = [parse_poly(c, num_vars, modulus=modulus) for c in coords]
    f = ProjectiveMap(polys)
    if f.degree == 0:
        raise ValueError(
            "the map is constant: its forms have degree 0 after cancelling "
            "their common factor"
        )
    return f


def _parse_matrix_document(text: str) -> MonomialMap:
    doc = json.loads(text)
    rows = doc.get("rows") if isinstance(doc, dict) else doc
    if not isinstance(rows, list):
        raise ValueError('matrix document must be a JSON array or {"rows": [...]}')
    return MonomialMap(rows)


def _rational_json(value: Fraction):
    """Exact rationals go to JSON as ints when possible, else strings."""
    return int(value) if value.denominator == 1 else str(value)


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, payload); main stamps the
# payload's schema


def _degree_run(args) -> tuple[int, dict, ProjectiveMap, DegreeSequence]:
    """Shared part of degseq and stability: the capped degree sequence of the
    map document, its first drop, and exit 3 when the cap cut it short."""
    f = _parse_map_document(args.map)
    seq = degree_sequence(f, args.nmax)
    payload = {
        "nmax": args.nmax,
        "degrees": list(seq.degrees),
        "drop_at": first_drop(seq.degrees, f.degree),
        "truncated_at": seq.truncated_at,
    }
    code = EXIT_RESOURCE_CAP if seq.truncated_at is not None else EXIT_OK
    return code, payload, f, seq


def _cmd_degseq(args) -> tuple[int, dict]:
    code, payload, f, seq = _degree_run(args)
    est = dyndeg_estimate(seq)
    payload.update(
        degree=f.degree, root_estimate=est.root_estimate, ratio_estimate=est.ratio_estimate
    )
    return code, payload


def _cmd_stability(args) -> tuple[int, dict]:
    code, payload, _, _ = _degree_run(args)
    stable = payload["drop_at"] is None and payload["truncated_at"] is None
    payload["stable_up_to"] = args.nmax if stable else None
    return code, payload


def _cmd_fabc_classify(args) -> tuple[int, dict]:
    p = FabcParams(args.a, args.b, args.c)
    verdict = classify(p)
    payload = {
        "a": str(p.a),
        "b": str(p.b),
        "c": str(p.c),
        "status": verdict.status.lower(),
        "zeta_order": verdict.zeta_order,
        "vanishing_index": verdict.vanishing_index,
    }
    return EXIT_OK, payload


def _cmd_fabc_modp(args) -> tuple[int, dict]:
    if (args.p is None) == (args.pmax is None):
        raise ValueError("give exactly one of -p or --pmax")
    single = args.p is not None
    primes = [args.p] if single else [q for q in range(2, args.pmax + 1) if is_prime(q)]
    results = [classify_mod_p(args.a, args.b, args.c, q, search_cap=args.cap) for q in primes]
    table = [{"p": r.p, "m": r.m, "status": r.status} for r in results]
    payload = table[0] if single else {"pmax": args.pmax, "table": table}
    capped = any(r["status"] == "NotFoundWithinCap" for r in table)
    return (EXIT_RESOURCE_CAP if capped else EXIT_OK), payload


def _cmd_fabc_locus(args) -> tuple[int, dict]:
    fam = FamilyParams(args.a, args.b, args.c)
    generic = family_generic_stability(fam)
    locus = family_exceptional_locus(fam, args.nmax)
    payload = {
        "truncation": locus.truncation,
        "generic_status": generic.status,
        "entries": [
            {
                "n": e.order,
                "poly": format_poly(e.poly, var_names=("T",)),
                "roots": [_complex_json(r) for r in e.roots],
                "heights": list(e.heights),
            }
            for e in locus.entries
        ],
        "degenerate_params": [_complex_json(r) for r in locus.degenerate_params],
        "zeta_one_poly": format_poly(locus.zeta_one_poly, var_names=("T",)),
    }
    return EXIT_OK, payload


def _family_option(option: str, text: str) -> FamilyParams:
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError(
            f"{option} must be three ';'-separated polynomials a;b;c in T, "
            f"not {len(parts)}"
        )
    return FamilyParams(*parts)


def _cmd_fabc_intersect(args) -> tuple[int, dict]:
    first = _family_option("--first", args.first)
    second = _family_option("--second", args.second)
    rep = unlikely_intersection_explorer(first, second, args.nmax)
    payload = {
        "truncation": rep.truncation,
        "phi_equal": rep.phi_equal,
        "first_size": rep.first_size,
        "second_size": rep.second_size,
        "intersection_size": rep.intersection_size,
        "symmetric_difference_size": rep.symmetric_difference_size,
        "overlaps": [
            {
                "order_first": o.order_first,
                "order_second": o.order_second,
                "poly": format_poly(o.poly, var_names=("T",)),
                "distinct_roots": o.distinct_roots,
            }
            for o in rep.overlaps
        ],
    }
    return EXIT_OK, payload


def _cmd_gfam(args) -> tuple[int, dict]:
    if args.report:
        rep = negative_answer_report(args.nmax)
        payload = {
            "nmax": rep.n_max,
            "linear_set": list(rep.linear_set),
            "odd_set": list(rep.odd_set),
            "sparse_set": list(rep.sparse_set),
            "intersection": list(rep.intersection),
            "symmetric_difference": list(rep.symmetric_difference),
            "max_height": rep.max_height,
        }
        return EXIT_OK, payload
    p = GFamilyParams(args.a, args.b)
    payload = {
        "a": str(p.a),
        "b": str(p.b),
        "nmax": args.nmax,
        "exceptional_prefix": [
            _rational_json(v) for v in exceptional_set(p, args.nmax)
        ],
    }
    if args.t is not None:
        verdict = classify_parameter(p, args.t, args.nmax)
        payload["parameter"] = {
            "t": str(args.t),
            "status": verdict.status,
            "n": verdict.n,
            "nmax": verdict.n_max,
        }
    return EXIT_OK, payload


def _cmd_monomial(args) -> tuple[int, dict]:
    m = _parse_matrix_document(args.matrix)
    report = full_report(m, rel_tol=args.rel_tol)
    payload = {"matrix": [list(r) for r in m.matrix], **report}
    return EXIT_OK, payload


def _cmd_verify(args) -> tuple[int, dict]:
    names = available_suites() if args.suite == "all" else (args.suite,)
    results = [run_suite(name, count=args.count, seed=args.seed) for name in names]
    payload = {
        "seed": args.seed,
        "suites": [
            {
                "name": r.name,
                "total": r.total,
                "passed": r.passed,
                "failed": r.failed,
                "seed": r.seed,
                "failures": list(r.failures),
            }
            for r in results
        ],
        "ok": all(r.ok for r in results),
    }
    return (EXIT_OK if payload["ok"] else EXIT_PROPERTY_FAILED), payload


# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Reads a token made of '-' and then anything but a lowercase letter or
    a second '-' as a value, not as an option, so that `-b -1/2` and
    `-c -3*T` work as `-b -1` already does.  Every option of dyndeg is '-'
    and a lowercase letter, or starts with '--'."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[^-a-z]")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dyndeg",
        description="Exact degree sequences, stability classifiers, and "
        "dynamical-degree certificates for rational self-maps.",
    )
    parser.add_argument(
        "--format",
        choices=("json", "human"),
        default="json",
        help="output style (default: json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    degseq = sub.add_parser("degseq", help="degrees of the reduced iterates")
    degseq.add_argument("--map", required=True, help='JSON: {"N":2,"coords":[...]}')
    degseq.add_argument("--nmax", type=int, default=5)
    degseq.set_defaults(handler=_cmd_degseq)

    stab = sub.add_parser("stability", help="first degree drop, if any")
    stab.add_argument("--map", required=True, help='JSON: {"N":2,"coords":[...]}')
    stab.add_argument("--nmax", type=int, default=5)
    stab.set_defaults(handler=_cmd_stability)

    fc = sub.add_parser("fabc-classify", help="stability verdict for one (a,b,c)")
    fc.add_argument("-a", type=_fraction_arg, required=True)
    fc.add_argument("-b", type=_fraction_arg, required=True)
    fc.add_argument("-c", type=_fraction_arg, required=True)
    fc.set_defaults(handler=_cmd_fabc_classify)

    fm = sub.add_parser("fabc-modp", help="first vanishing index of the reduction mod p")
    fm.add_argument("-a", type=int, required=True)
    fm.add_argument("-b", type=int, required=True)
    fm.add_argument("-c", type=int, required=True)
    fm.add_argument("-p", type=int, default=None, help="a single prime")
    fm.add_argument("--pmax", type=int, default=None, help="scan all primes <= pmax")
    fm.add_argument("--cap", type=int, default=None, help="search cap (default p^2)")
    fm.set_defaults(handler=_cmd_fabc_modp)

    fl = sub.add_parser("fabc-locus", help="unstable parameter locus of a 1-parameter family")
    fl.add_argument("-a", required=True, help="polynomial in T, e.g. '1' or 'T'")
    fl.add_argument("-b", required=True)
    fl.add_argument("-c", required=True)
    fl.add_argument("--nmax", type=int, default=30)
    fl.set_defaults(handler=_cmd_fabc_locus)

    fi = sub.add_parser("fabc-intersect", help="compare the loci of two families")
    fi.add_argument("--first", required=True, help="'a;b;c' polynomials in T")
    fi.add_argument("--second", required=True, help="'a;b;c' polynomials in T")
    fi.add_argument("--nmax", type=int, default=30)
    fi.set_defaults(handler=_cmd_fabc_intersect)

    gf = sub.add_parser("gfam", help="marked-orbit family: unstable parameter values")
    gf.add_argument("-a", type=_fraction_arg, default=Fraction(1))
    gf.add_argument("-b", type=_fraction_arg, default=Fraction(1))
    gf.add_argument("--nmax", type=int, default=50)
    gf.add_argument("-t", type=_fraction_arg, default=None, help="classify one parameter value")
    gf.add_argument("--report", action="store_true", help="showcase-family set report")
    gf.set_defaults(handler=_cmd_gfam)

    mono = sub.add_parser("monomial", help="spectral certificate for a monomial map")
    mono.add_argument("--matrix", required=True, help='JSON: [[2,1],[1,1]] or {"rows": [...]}')
    mono.add_argument("--rel-tol", type=float, default=1e-6, dest="rel_tol")
    mono.set_defaults(handler=_cmd_monomial)

    ver = sub.add_parser("verify", help="run a batch verification suite")
    ver.add_argument(
        "--suite",
        choices=available_suites() + ("all",),
        required=True,
    )
    ver.add_argument("--count", type=int, default=None, help="instances (random suites)")
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ver.set_defaults(handler=_cmd_verify)

    return parser


def _emit_human(payload: dict, stream) -> None:
    def walk(key: str, value) -> None:
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{key}.{k}" if key else str(k), value[k])
        elif isinstance(value, list) and any(
            isinstance(v, (dict, list)) for v in value
        ):
            for i, v in enumerate(value):
                walk(f"{key}[{i}]", v)
        else:
            print(f"{key}: {value}", file=stream)

    walk("", payload)


# Built on the first call of main and reused: parsing leaves it unchanged.
_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_OK if exc.code == 0 else EXIT_INVALID_INPUT
    try:
        code, payload = args.handler(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except TermCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    payload["schema"] = 1
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        _emit_human(payload, sys.stdout)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
