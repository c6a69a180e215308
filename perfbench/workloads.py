"""Seeded item batches and answer oracles for the benchmark workloads.

A batch is a list of items.  An item is one checked unit of work: one or
more dyndeg CLI argv lists, run in order, whose (exit code, stdout) pairs
one oracle then checks.  Every expected answer comes from this file alone
(closed forms and small recurrences written here), never from dyndeg, so
a fast wrong answer fails.  Nothing here imports dyndeg.

The batches hold the work steady from seed to seed: every item sits in a
fixed slot (a class of map and the sizes of its parameters), and the seed
picks only signs, suite seeds and the order of the items, so the time of
one pass changes little with the seed.  Items whose cost moves with a
choice the seed could make (the g_t maps, whose cost grows with |t|) are
fixed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1

# c^2/(ab) for each root-of-unity order of the fabc family; V_{order-1} = 0
ORDER_OF_KAPPA = {Fraction(-1): 3, Fraction(-2): 4, Fraction(-3): 6}

# deg f^1..f^6 of an unstable fabc map, by its root-of-unity order
ORDER_CLASS_DEGREES = {
    3: (2, 4, 7, 12, 20, 33),
    4: (2, 4, 8, 15, 28, 52),
    6: (2, 4, 8, 16, 32, 63),
}

STABLE_GRID_NMAX = 5
# |a|, |b|, |c| <= 3 with c^2 != k|ab| for k = 1, 2, 3: stable for all signs
STABLE_GRID_SLOTS = tuple(
    (a, b, c)
    for a in range(1, 4)
    for b in range(1, 4)
    for c in range(1, 4)
    if all(c * c != k * a * b for k in (1, 2, 3))
)
# |a|, |b|, |c| of the unstable items, by order; ab < 0 makes them unstable
STABLE_GRID_UNSTABLE_SLOTS = {3: (1, 1, 1), 4: (1, 2, 2)}

DROP_NMAX = 5
# |a|, |c| of the unstable fabc items; b = c^2 / (kappa a)
DROP_FABC_SLOTS = ((1, 2), (3, 1))
# hit index k, a, b of the g_t items; fixed, since their cost moves with |t|
DROP_GFAM_ITEMS = ((1, 3, 1), (2, 1, 1))
GFAM_ORBIT_NMAX = 50

FAMILIES_NMAX = 40
# |a|, |b|, c of the families a, b, c*T; their |c^2/(ab)| differ pairwise
FAMILY_SLOTS = ((1, 2, 3), (3, 1, 2), (2, 3, 1), (1, 1, 1))

CERTIFY_MONOMIAL_COUNT = 800
CERTIFY_UNIMODULAR_COUNT = 800
CERTIFY_PMAX = 1500


@dataclass(frozen=True)
class Item:
    """CLI calls plus what their oracle needs to know."""

    kind: str
    calls: tuple[tuple[str, ...], ...]
    expect: dict


# ---------------------------------------------------------------------------
# independent references


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def locus_size(nmax: int) -> int:
    """Points of the truncated locus of a family with c^2/(ab) = lambda*T^2.

    Psi_n(-2 - lambda*T^2) has degree phi(n) in T and simple roots, none
    at T = 0, and slices of different orders are disjoint.
    """
    return sum(euler_phi(n) for n in range(3, nmax + 1))


def fabc_verdict(a: Fraction, b: Fraction, c: Fraction) -> tuple[str, int | None]:
    """("stable", None) or ("unstable", root-of-unity order), from c^2/(ab)."""
    order = ORDER_OF_KAPPA.get(c * c / (a * b))
    return ("stable", None) if order is None else ("unstable", order)


def expected_drop(order: int | None, nmax: int) -> int | None:
    """First n <= nmax with deg f^n < 2^n: the vanishing index plus one."""
    if order is None or order > nmax:
        return None
    return order


def gfam_orbit(a: int, b: int, k: int) -> list[int]:
    """e_0..e_k of the marked orbit: e_0 = 1, e_{n+1} = a e_n + b."""
    values = [1]
    for _ in range(k):
        values.append(a * values[-1] + b)
    return values


def primes_upto(n: int) -> list[int]:
    primes: list[int] = []
    composite: set[int] = set()
    for p in range(2, n + 1):
        if p not in composite:
            primes.append(p)
            composite.update(range(p * p, n + 1, p))
    return primes


def first_vanishing_mod_p(a: int, b: int, c: int, p: int) -> int:
    """Least m >= 1 with V_m = 0 mod p (p not dividing abc)."""
    prev, cur, m = 1, c % p, 1
    while cur:
        prev, cur, m = cur, (c * cur + a * b * prev) % p, m + 1
    return m


# ---------------------------------------------------------------------------
# CLI argument text


def _q(value) -> str:
    return str(Fraction(value))


def fabc_map(a, b, c) -> str:
    """[XY, XY + aZ^2, bYZ + cZ^2] as a map document."""
    coords = ["X*Y", f"X*Y + {_q(a)}*Z^2", f"{_q(b)}*Y*Z + {_q(c)}*Z^2"]
    return json.dumps({"N": 2, "coords": coords})


def gfam_map(a: int, b: int, t: int) -> str:
    """g_t = [(aX+bZ)(X-tZ) + (X-Z)Y, (X-Z)Y, (X-tZ)Z], expanded."""
    coords = [
        f"{a}*X^2 + {b - a * t}*X*Z + {-b * t}*Z^2 + X*Y + -1*Y*Z",
        "X*Y + -1*Y*Z",
        f"X*Z + {-t}*Z^2",
    ]
    return json.dumps({"N": 2, "coords": coords})


def _family_arg(fam: tuple[int, int, int]) -> str:
    """'a;b;c*T'; passed as --first=... since it may start with '-'."""
    a, b, c = fam
    return f"{a};{b};{c}*T"


# ---------------------------------------------------------------------------
# batches


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _stable_grid(rng: random.Random) -> list[Item]:
    picked = [(_sign(rng) * a, _sign(rng) * b, _sign(rng) * c) for a, b, c in STABLE_GRID_SLOTS]
    for a, b, c in STABLE_GRID_UNSTABLE_SLOTS.values():
        sa = _sign(rng)
        picked.append((sa * a, -sa * b, _sign(rng) * c))
    rng.shuffle(picked)
    items = []
    for a, b, c in picked:
        status, order = fabc_verdict(Fraction(a), Fraction(b), Fraction(c))
        items.append(
            Item(
                "stable-grid",
                (
                    ("fabc-classify", "-a", str(a), "-b", str(b), "-c", str(c)),
                    ("stability", "--map", fabc_map(a, b, c), "--nmax", str(STABLE_GRID_NMAX)),
                ),
                {"status": status, "order": order, "nmax": STABLE_GRID_NMAX},
            )
        )
    return items


def _drop_degseq(rng: random.Random) -> list[Item]:
    items = []
    for kappa, order in ORDER_OF_KAPPA.items():
        for a_size, c_size in DROP_FABC_SLOTS:
            a, c = Fraction(_sign(rng) * a_size), Fraction(_sign(rng) * c_size)
            b = c * c / (kappa * a)
            items.append(
                Item(
                    "fabc-degseq",
                    (("degseq", "--map", fabc_map(a, b, c), "--nmax", str(DROP_NMAX)),),
                    {"order": order, "nmax": DROP_NMAX},
                )
            )
    for k, a, b in DROP_GFAM_ITEMS:
        orbit = gfam_orbit(a, b, k)
        if len(set(orbit)) != len(orbit):
            raise AssertionError(f"orbit {orbit} of ({a}, {b}) repeats a value")
        t = orbit[k]
        items.append(
            Item(
                "gfam-drop",
                (
                    ("gfam", "-a", str(a), "-b", str(b), "-t", str(t), "--nmax", str(GFAM_ORBIT_NMAX)),
                    ("degseq", "--map", gfam_map(a, b, t), "--nmax", str(DROP_NMAX)),
                ),
                {"hit": k, "nmax": DROP_NMAX},
            )
        )
    rng.shuffle(items)
    return items


def _family(rng: random.Random, slot: tuple[int, int, int]) -> tuple[int, int, int]:
    """(a, b, c) for the family a, b, c*T; c > 0 keeps "-c" off the argv,
    and its sign does not change c^2/(ab)."""
    a, b, c = slot
    return _sign(rng) * a, _sign(rng) * b, c


def _kappa(fam: tuple[int, int, int]) -> Fraction:
    a, b, c = fam
    return Fraction(c * c, a * b)


def _families(rng: random.Random) -> list[Item]:
    n = str(FAMILIES_NMAX)
    fams = [_family(rng, slot) for slot in FAMILY_SLOTS]
    items = [
        Item(
            "locus",
            (("fabc-locus", "-a", str(a), "-b", str(b), "-c", f"{c}*T", "--nmax", n),),
            {"nmax": FAMILIES_NMAX},
        )
        for a, b, c in fams
    ]
    # two pairs with equal invariant c^2/(ab) (one family scaled), two without
    pairs = [
        (fams[0], tuple(2 * v for v in fams[0])),
        (fams[1], tuple(3 * v for v in fams[1])),
        (fams[2], fams[3]),
        (fams[3], fams[0]),
    ]
    for first, second in pairs:
        items.append(
            Item(
                "intersect",
                (
                    (
                        "fabc-intersect",
                        f"--first={_family_arg(first)}",
                        f"--second={_family_arg(second)}",
                        "--nmax",
                        n,
                    ),
                ),
                {"nmax": FAMILIES_NMAX, "phi_equal": _kappa(first) == _kappa(second)},
            )
        )
    rng.shuffle(items)
    return items


def _certify(rng: random.Random) -> list[Item]:
    items = []
    for suite, count in (("monomial", CERTIFY_MONOMIAL_COUNT), ("unimodular", CERTIFY_UNIMODULAR_COUNT)):
        items.append(
            Item(
                "suite",
                (("verify", "--suite", suite, "--count", str(count), "--seed", str(rng.randrange(10**6))),),
                {"total": count},
            )
        )
    items.append(Item("suite", (("verify", "--suite", "gfam"),), {"total": None}))
    a, b, c = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3))
    items.append(
        Item(
            "modp",
            (("fabc-modp", "-a", str(a), "-b", str(b), "-c", str(c), "--pmax", str(CERTIFY_PMAX)),),
            {"a": a, "b": b, "c": c, "pmax": CERTIFY_PMAX},
        )
    )
    rng.shuffle(items)
    return items


WORKLOADS = {
    "stable-grid": _stable_grid,
    "drop-degseq": _drop_degseq,
    "families": _families,
    "certify": _certify,
}


def make_batch(workload: str, seed: int) -> list[Item]:
    """The workload's item batch; the same (workload, seed) gives the same batch."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# oracles: each returns None when the answers are right, else a reason


def _doc(result: tuple[int, str]) -> dict:
    code, out = result
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(out)


def _check_stable_grid(item: Item, results) -> str | None:
    verdict, seq = (_doc(r) for r in results)
    want = item.expect
    if verdict["status"] != want["status"]:
        return f"classifier says {verdict['status']}, expected {want['status']}"
    if want["order"] is not None and verdict["vanishing_index"] != want["order"] - 1:
        return f"vanishing index {verdict['vanishing_index']} for order {want['order']}"
    drop = expected_drop(want["order"], want["nmax"])
    if seq["drop_at"] != drop:
        return f"drop_at {seq['drop_at']}, expected {drop}"
    if want["order"] is None:
        ref = [2**n for n in range(1, want["nmax"] + 1)]
    else:
        ref = list(ORDER_CLASS_DEGREES[want["order"]][: want["nmax"]])
    if seq["degrees"] != ref:
        return f"degrees {seq['degrees']}, expected {ref}"
    return None


def _check_fabc_degseq(item: Item, results) -> str | None:
    (seq,) = (_doc(r) for r in results)
    want = item.expect
    ref = list(ORDER_CLASS_DEGREES[want["order"]][: want["nmax"]])
    if seq["degrees"] != ref:
        return f"degrees {seq['degrees']}, order-{want['order']} reference {ref}"
    drop = expected_drop(want["order"], want["nmax"])
    if seq["drop_at"] != drop:
        return f"drop_at {seq['drop_at']}, expected {drop}"
    return None


def _check_gfam_drop(item: Item, results) -> str | None:
    orbit, seq = (_doc(r) for r in results)
    k = item.expect["hit"]
    param = orbit["parameter"]
    if (param["status"], param["n"]) != ("HitsIndeterminacy", k):
        return f"gfam verdict {param}, expected a hit at {k}"
    if seq["drop_at"] != k + 1:
        return f"drop_at {seq['drop_at']}, expected {k + 1}"
    return None


def _check_locus(item: Item, results) -> str | None:
    (doc,) = (_doc(r) for r in results)
    nmax = item.expect["nmax"]
    if doc["generic_status"] != "GenericallyStable":
        return f"generic status {doc['generic_status']}"
    orders = [e["n"] for e in doc["entries"]]
    if orders != list(range(3, nmax + 1)):
        return f"locus orders {orders}"
    for e in doc["entries"]:
        if len(e["roots"]) != euler_phi(e["n"]) or len(e["heights"]) != euler_phi(e["n"]):
            return f"order {e['n']} has {len(e['roots'])} roots, expected phi = {euler_phi(e['n'])}"
    return None


def _check_intersect(item: Item, results) -> str | None:
    (doc,) = (_doc(r) for r in results)
    size = locus_size(item.expect["nmax"])
    if doc["phi_equal"] != item.expect["phi_equal"]:
        return f"phi_equal {doc['phi_equal']}, expected {item.expect['phi_equal']}"
    if (doc["first_size"], doc["second_size"]) != (size, size):
        return f"locus sizes {doc['first_size']}, {doc['second_size']}, expected {size}"
    inter = doc["intersection_size"]
    if not 0 <= inter <= size:
        return f"intersection size {inter} out of range"
    if doc["symmetric_difference_size"] != 2 * size - 2 * inter:
        return "symmetric difference disagrees with the intersection"
    if item.expect["phi_equal"] and inter != size:
        return f"equal invariants but intersection {inter} of {size}"
    return None


def _check_suite(item: Item, results) -> str | None:
    (doc,) = (_doc(r) for r in results)
    if doc["ok"] is not True:
        return "suite reports a failure"
    total = item.expect["total"]
    for s in doc["suites"]:
        if s["failed"] != 0 or (total is not None and s["total"] != total):
            return f"suite {s['name']}: {s['passed']} of {s['total']} passed"
    return None


def _check_modp(item: Item, results) -> str | None:
    (doc,) = (_doc(r) for r in results)
    a, b, c = (item.expect[k] for k in "abc")
    rows = doc["table"]
    primes = primes_upto(item.expect["pmax"])
    if [r["p"] for r in rows] != primes:
        return "prime table lists the wrong primes"
    for r in rows:
        p = r["p"]
        if (a * b * c) % p == 0:
            want = ("DegenerateModP", None)
        else:
            want = ("ExceptionalAt", first_vanishing_mod_p(a, b, c, p))
        if (r["status"], r["m"]) != want:
            return f"p = {p}: {r['status']} m = {r['m']}, expected {want}"
    return None


ORACLES = {
    "stable-grid": _check_stable_grid,
    "fabc-degseq": _check_fabc_degseq,
    "gfam-drop": _check_gfam_drop,
    "locus": _check_locus,
    "intersect": _check_intersect,
    "suite": _check_suite,
    "modp": _check_modp,
}


def check(item: Item, results: list[tuple[int, str]]) -> str | None:
    """None when every answer of the item is right, else why not."""
    try:
        return ORACLES[item.kind](item, results)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable answer: {exc!r}"
