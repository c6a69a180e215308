"""Every library function runs under some command, or is named below with
what keeps it.

The test traces dyndeg.cli.main with sys.setprofile over a fixed set of
argument lists: the golden cases, every verification suite, the gfam
report, one stability run, one fabc-modp scan, one --format human run and
one locus whose coefficient passes the float range.  A function defined under src/dyndeg
(dunder methods, lambdas and comprehensions aside) that never ran must be
in UNREACHED, and every name in UNREACHED must still exist and never run.
A new function that no command reaches fails here: give it a caller or
delete it.
"""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import sys

import dyndeg
from dyndeg import cli

DATA = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")
STABLE_MAP = '{"N":2,"coords":["X*Y","X*Y+Z^2","Y*Z+Z^2"]}'

# never run by a command; each is kept for what the comment names
UNREACHED = {
    # looked up by name by perfbench/tracer.py's TARGETS
    "exactalg.poly_divexact",
    "fabc.mahler_height",
    "monomial.spectral_radius_enclosure",
    # the source of the singular-orbit rule (ROADMAP item 6)
    "fabc.critical_locus",
    "fabc.indeterminacy_points",
    "gfam.indeterminacy_points",
    # certified g_t verdicts (ROADMAP item 14)
    "gfam.exact_membership",
    # exact monomial certificates (ROADMAP item 10)
    "monomial.SpectralData.m_epsilon",
    "monomial.mat_pow",
}


def argv_lists() -> list[list[str]]:
    with open(DATA) as fh:
        golden = [case["argv"] for case in json.load(fh)]
    return golden + [
        ["verify", "--suite", "all"],
        ["gfam", "--report"],
        ["stability", "--map", STABLE_MAP, "--nmax", "4"],
        ["fabc-modp", "-a", "-2", "-b", "1", "-c", "3", "--pmax", "20"],
        ["--format", "human", "fabc-classify", "-a", "1", "-b", "-1", "-c", "1"],
        # a = 10^400 passes the float range, so the roots take fabc._log's path
        ["fabc-locus", "-a", str(10**400), "-b", "1", "-c", "T", "--nmax", "4"],
    ]


def defined_functions() -> dict:
    """(file, first line, name) of every function code object under
    src/dyndeg -> its dotted name relative to the package."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            name = f"{prefix}.{const.co_name}"
            if const.co_flags & inspect.CO_NEWLOCALS and not (
                const.co_name.startswith("__") and const.co_name.endswith("__")
            ):
                found[(const.co_filename, const.co_firstlineno, const.co_name)] = name
            walk(const, name)  # nested functions, and methods in a class body

    for info in pkgutil.iter_modules(dyndeg.__path__):
        module = importlib.import_module(f"dyndeg.{info.name}")
        with open(module.__file__, encoding="utf-8") as fh:
            walk(compile(fh.read(), module.__file__, "exec"), info.name)
    return found


def test_unreached_functions_are_exactly_the_kept_ones(monkeypatch):
    defined = defined_functions()
    # results that earlier calls in this process left behind would answer
    # without running the code: the cached functions and cli's parser
    for info in pkgutil.iter_modules(dyndeg.__path__):
        for value in vars(importlib.import_module(f"dyndeg.{info.name}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    monkeypatch.setattr(cli, "_PARSER", None)
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            ran.add((code.co_filename, code.co_firstlineno, code.co_name))

    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv in argv_lists():
                codes.append(cli.main(argv))
        finally:
            sys.setprofile(None)
    assert codes == [0] * len(codes)
    unreached = {name for key, name in defined.items() if key not in ran}
    assert unreached == UNREACHED
