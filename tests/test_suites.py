"""Verification-suite harness: determinism, dispatch, reduced-size runs."""

import dataclasses
import random
from fractions import Fraction
from unittest import mock

import pytest

from dyndeg import gfam, monomial, suites
from dyndeg.monomial import analyze
from dyndeg.fabc import FabcParams, classify
from dyndeg.suites import (
    SuiteResult,
    available_suites,
    fabc_grid_suite,
    gfam_suite,
    monomial_suite,
    run_suite,
    unimodular_suite,
)


class TestDispatch:
    def test_available(self):
        assert available_suites() == ("fabc-grid", "gfam", "monomial", "unimodular")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            run_suite("nope")

    def test_count_validation(self):
        with pytest.raises(ValueError):
            monomial_suite(count=0)
        with pytest.raises(ValueError):
            unimodular_suite(count=-3)


class TestResults:
    def test_result_accounting(self):
        res = SuiteResult(name="x", total=10, passed=7, failures=("a", "b", "c"), seed=1)
        assert res.failed == 3
        assert not res.ok
        assert SuiteResult(name="x", total=2, passed=2, failures=(), seed=None).ok


def _fabc_grid_of_bound(bound):
    """fabc_grid_suite on the sub-grid |a|,|b|,|c| <= bound of its grid."""
    with mock.patch.object(suites, "_GRID_BOUND", bound):
        return fabc_grid_suite()


class TestReducedRuns:
    def test_monomial_sample(self):
        res = monomial_suite(count=80, seed=7)
        assert res.ok and res.total == 80

    def test_monomial_deterministic(self):
        first = monomial_suite(count=20, seed=11)
        second = monomial_suite(count=20, seed=11)
        assert first == second

    def test_unimodular_sample(self):
        res = unimodular_suite(count=60, seed=5)
        assert res.ok and res.total == 60

    def test_gfam_full(self):
        res = gfam_suite()
        assert res.ok
        assert res.total == 23  # 20 grid pairs + 3 showcase parameters

    def test_gfam_suite_fails_when_the_track_is_shifted(self, monkeypatch):
        """The orbit check inside orbit_marked_point is the suite's only
        track check: shifting one closed-form value fails every pair."""
        original = gfam._track

        def shifted(p):
            for n, e in enumerate(original(p)):
                yield e + 1 if n == 5 else e

        monkeypatch.setattr(gfam, "_track", shifted)
        res = gfam_suite()
        assert res.failed == 20
        assert all("left its predicted track at step 5" in f for f in res.failures)

    def test_fabc_small_grid(self):
        res = _fabc_grid_of_bound(2)
        assert res.ok
        assert res.total == 64

    def test_run_suite_paths(self):
        assert run_suite("monomial", count=10).ok
        assert run_suite("unimodular", count=10).ok
        assert run_suite("gfam").ok


def _spy(monkeypatch, module, name, record=lambda *args: None):
    """Count the calls of module.name, which keeps working as before."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestWorkDoneOnce:
    """Each suite instance pays once for its spectral data and its inverse."""

    def test_monomial_suite_certifies_one_radius_per_instance(self, monkeypatch):
        radii = _spy(monkeypatch, monomial, "_certify_radius")
        assert monomial_suite(count=50, seed=9).ok
        assert len(radii) == 50

    def test_monomial_suite_makes_n_minus_one_products_per_instance(self, monkeypatch):
        # A^2, ..., A^N once per map: its powers feed the characteristic
        # polynomial, the contraction index and the degree-ratio check
        products = _spy(monkeypatch, monomial, "mat_mul")
        assert monomial_suite(count=50, seed=9).ok
        sizes = [suites._random_monomial_map(random.Random(9 * 1_000_003 + i)).n for i in range(50)]
        assert len(products) == sum(n - 1 for n in sizes)

    def test_unimodular_suite_builds_one_adjugate_per_instance(self, monkeypatch):
        adjugates = _spy(monkeypatch, monomial, "_adjugate")
        assert unimodular_suite(count=50, seed=9).ok
        assert len(adjugates) == 50


class TestMonomialBlocks:
    """The monomial suite analyzes its maps in blocks of suites._BLOCK."""

    def test_one_eigenvalue_call_per_degree_per_block(self, monkeypatch):
        count = 2 * suites._BLOCK + 5
        degrees = _spy(monkeypatch, monomial.np.linalg, "eigvals", lambda a: a.shape[-1])
        blocks = _spy(monkeypatch, suites, "analyze_all", lambda maps: len(degrees))
        roots = _spy(monkeypatch, monomial.np, "roots")
        assert monomial_suite(count=count, seed=9).ok
        assert roots == []
        assert len(blocks) == 3
        for start, end in zip(blocks, blocks[1:] + [len(degrees)]):
            in_block = degrees[start:end]
            assert len(in_block) == len(set(in_block)) <= 5

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_blocks_give_what_one_analyze_per_instance_gives(self, monkeypatch, offset):
        count, seed = suites._BLOCK + offset, 538661
        seen = _spy(
            monkeypatch, suites, "_check_monomial_instance", lambda m, data: (m, data)
        )
        res = monomial_suite(count=count, seed=seed)
        maps = [
            suites._random_monomial_map(random.Random(seed * 1_000_003 + i))
            for i in range(count)
        ]
        assert [(m, data) for m, data in seen] == [(m, analyze(m)) for m in maps]
        failures = tuple(
            f"instance {i} (seed {seed}): matrix {list(m.matrix)}: " + "; ".join(problems)
            for i, m in enumerate(maps)
            if (problems := suites._check_monomial_instance(m, analyze(m)))
        )
        assert res == SuiteResult("monomial", count, count - len(failures), failures, seed)


_certify_radius = monomial._certify_radius


def _radius_without_room(coeffs, rel_tol, est):
    """The certified enclosure with its upper end moved to 0, so every
    nonzero characteristic coefficient exceeds its bound."""
    return dataclasses.replace(_certify_radius(coeffs, rel_tol, est), high=Fraction(0))


_STABLE = classify(FabcParams(1, 1, 1))

_FAILING_CHECKS = {
    "monomial": (
        lambda: monomial_suite(count=2, seed=7),
        (monomial, "_certify_radius", _radius_without_room),
        (
            "instance 0 (seed 7): matrix [(-3, -2), (9, -2)]: "
            "characteristic coefficient 1 exceeds its bound",
            "instance 1 (seed 7): matrix [(-2, -1), (6, 6)]: "
            "characteristic coefficient 1 exceeds its bound",
        ),
    ),
    "unimodular": (
        lambda: unimodular_suite(count=2, seed=7),
        (suites, "inverse_degree_bound_check", lambda m, inv=None: False),
        (
            "instance 0 (seed 7): matrix [(1, 6), (0, 1)]: "
            "D(inverse) = 7 exceeds D = 7 to the power 1",
            "instance 1 (seed 7): matrix [(5, 2), (-3, -1)]: "
            "D(inverse) = 11 exceeds D = 11 to the power 1",
        ),
    ),
    "fabc-grid": (
        lambda: _fabc_grid_of_bound(1),
        (suites, "classify", lambda p: _STABLE),
        tuple(
            f"triple {t}: classifier says Stable but recurrence window has a zero"
            for t in ("(-1,1,-1)", "(-1,1,1)", "(1,-1,-1)", "(1,-1,1)")
        ),
    ),
    "gfam": (
        gfam_suite,
        (suites, "degree_drop_index", lambda f, n_max: None),
        (
            "pair (1,1) at t=2: drop index None, expected a drop",
            "pair (1,1) at t=3: drop index None, expected a drop",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(_FAILING_CHECKS))
def test_failure_strings(monkeypatch, name):
    """A failing instance reports its replay tag, then its problems."""
    run, (module, attr, failing), expected = _FAILING_CHECKS[name]
    monkeypatch.setattr(module, attr, failing)
    res = run()
    assert res.name == name
    assert res.failures == expected
    assert res.failed == len(expected)
