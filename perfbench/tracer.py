"""Spans and counters around dyndeg's layers, installed from outside.

A span is (name, start, end, parent) for one call of a wrapped function.
Spans stay in memory and are written out once, at the end of a pass.
Per name the tracer keeps calls, self time (the span minus its direct
child spans) and inclusive time; a call nested inside an open span of the
same name (recursion) adds to calls and self time but not again to
inclusive time.

install() rebinds each wrapped function in every dyndeg module that binds
it (a ``from .x import f`` copies the reference, so wrapping only the
defining module would miss those callers) and wraps methods on their
class.  uninstall() restores every binding.  No file of dyndeg changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from dataclasses import dataclass


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    open: int = 0


def _mul_pairs(tracer, args, result, dur, outermost):
    a, b = args[0], args[1]
    if hasattr(b, "terms"):
        tracer.count("exactalg.mul.term_pairs", len(a.terms) * len(b.terms))


def _substitute_terms(tracer, args, result, dur, outermost):
    tracer.count("exactalg.substitute_system.out_terms", sum(len(p.terms) for p in result))


def _gcd_split(tracer, args, result, dur, outermost):
    if not result.is_constant():
        tracer.count("exactalg.poly_gcd.nontrivial", 1)
    if outermost:
        path = "univariate_s" if args[0].num_vars == 1 else "multivariate_s"
        tracer.count(f"exactalg.poly_gcd.{path}", dur)


def _quotient_terms(tracer, args, result, dur, outermost):
    tracer.count("exactalg.poly_divexact.quotient_terms", len(result.terms))


# (module, attribute, span name, figures reported per pass, hook);
# "Class.method" wraps the method on its class
TARGETS = (
    ("cli", "main", "cli.main", ("calls", "self_s"), None),
    ("exactalg", "MultiPoly.__mul__", "exactalg.mul", ("calls", "self_s"), _mul_pairs),
    ("exactalg", "MultiPoly.__add__", "exactalg.add", ("calls", "self_s"), None),
    ("exactalg", "substitute_system", "exactalg.substitute_system", ("calls", "incl_s"), _substitute_terms),
    ("exactalg", "poly_gcd", "exactalg.poly_gcd", ("calls", "self_s", "incl_s"), _gcd_split),
    ("exactalg", "poly_divexact", "exactalg.poly_divexact", ("calls", "self_s", "incl_s"), _quotient_terms),
    ("ratmap", "ProjectiveMap.__init__", "ratmap.ProjectiveMap", ("calls", "self_s"), None),
    ("ratmap", "degree_sequence", "ratmap.degree_sequence", ("incl_s",), None),
    ("fabc", "classify", "fabc.classify", ("incl_s",), None),
    ("fabc", "vn_sequence", "fabc.vn_sequence", ("incl_s",), None),
    ("fabc", "family_exceptional_locus", "fabc.family_exceptional_locus", ("incl_s",), None),
    ("fabc", "unlikely_intersection_explorer", "fabc.unlikely_intersection_explorer", ("incl_s",), None),
    ("fabc", "mahler_height", "fabc.mahler_height", ("incl_s",), None),
    ("cyclo", "cos_min_poly", "cyclo.cos_min_poly", ("calls", "incl_s"), None),
    ("monomial", "char_poly", "monomial.char_poly", ("incl_s",), None),
    ("monomial", "spectral_radius_enclosure", "monomial.spectral_radius_enclosure", ("incl_s",), None),
    ("monomial", "homogenize", "monomial.homogenize", ("incl_s",), None),
    ("gfam", "orbit_marked_point", "gfam.orbit_marked_point", ("incl_s",), None),
    ("gfam", "exceptional_set", "gfam.exceptional_set", ("incl_s",), None),
    ("suites", "run_suite", "suites.run_suite", ("incl_s",), None),
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, hook=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = Stat()
        name_id = self._name_ids[name]
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            stat.open += 1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[index] = end
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                stat.open -= 1
                stat.calls += 1
                stat.self_s += dur - frame[1]
                if stat.open == 0:
                    stat.incl_s += dur
            if hook is not None:
                hook(tracer, args, result, dur, stat.open == 0)
            return result

        return functools.update_wrapper(traced, fn)

    # -- installation -------------------------------------------------------

    def install(self, package: str = "dyndeg") -> None:
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for module_name, attr, name, _, hook in TARGETS:
            module = sys.modules[f"{package}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                owners = [getattr(module, cls_name)]
                original = owners[0].__dict__[method]
            else:
                owners = modules
                original = getattr(module, attr)
            wrapped = self.wrap(name, original, hook)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._restore.append((owner, key, original))
                        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One JSON object per span: name, start, end (seconds), parent index."""
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self.span_start)):
                out.write(
                    json.dumps(
                        {
                            "name": self.names[self.span_name[i]],
                            "start": self.span_start[i],
                            "end": self.span_end[i],
                            "parent": self.span_parent[i],
                        }
                    )
                    + "\n"
                )
