"""README's library quick tour runs as printed, and each expression in it
gives the value its comment states, so a public name that is removed or
renamed, or an answer that changes, fails here before a reader meets it."""

import ast
import os
import re
from fractions import Fraction

from dyndeg.exactalg import parse_poly
from dyndeg.fabc import ModPResult, StabilityVerdict
from dyndeg.gfam import HitsIndeterminacyAt

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def quick_tour() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    match = re.search(r"^## Library quick tour\n+```python\n(.*?)^```$", text, re.M | re.S)
    assert match, "README has no python block under 'Library quick tour'"
    return match.group(1)


def bracketed(value) -> bool:
    low, mid, high = value
    return type(low) is type(high) is Fraction and low <= mid < high


# each bare expression of the block, as printed, with its commented value
EXPECTED = {
    "degree_sequence(f, 5).degrees": lambda v: v == (2, 4, 7, 12, 20),
    "classify(FabcParams(1, -1, 1))": lambda v: v
    == StabilityVerdict("Unstable", zeta_order=3, vanishing_index=2),
    "classify(FabcParams(1, 1, 1))": lambda v: v == StabilityVerdict("Stable"),
    "degree_sequence(build_map(None), 10).degrees": lambda v: v
    == tuple(2**n for n in range(1, 11)),
    "classify_mod_p(-2, 1, 3, 7)": lambda v: v == ModPResult(7, "ExceptionalAt", 2, 49),
    "locus.entries[0].poly": lambda v: v == parse_poly("T^2 + 1", 1, var_names=("T",)),
    "orbit_marked_point(GFamilyParams(1, 1), 5, 50)": lambda v: v == HitsIndeterminacyAt(4),
    "(enc.low, enc.value, enc.high)": bracketed,
}


def test_quick_tour_runs_and_states_its_values():
    block = quick_tour()
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), README, "eval")
            values[ast.get_source_segment(block, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), README, "exec"), namespace)
    assert set(values) == set(EXPECTED)
    for source, holds in EXPECTED.items():
        assert holds(values[source]), (source, values[source])
    assert namespace["locus"].entries[0].order == 3
