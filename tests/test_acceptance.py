"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on the terminal. Every comparison is exact rational equality; there
are no tolerances anywhere.
"""

import functools
import random
import time

import pytest

from montesinos import (
    Frac,
    analyze,
    enumerate_skeletons,
    enumerate_systems,
    exhaustive_paths,
    build_reports,
    farey_parents,
    find_seifert_system,
    is_farey_edge,
    is_seifert_candidate,
    solve_endpoints,
    system_twist,
    validate_system,
)
from montesinos import diagram_edge, edge_sign
from montesinos.bruteforce import cross_check
from montesinos.farey import diagram_uv
from montesinos.cli import main
from montesinos.family import (
    expected_family_gap,
    expected_family_slopes,
    family_knot,
    verify_family_row,
)

from helpers import fr, skeleton

FAMILY_RANGE = range(11, 42, 2)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS")
            return result

        return run

    return wrap


@pytest.fixture(scope="module")
def family_rows():
    started = time.perf_counter()
    rows = {n: verify_family_row(n) for n in FAMILY_RANGE}
    elapsed = time.perf_counter() - started
    return rows, elapsed


@pytest.fixture(scope="module")
def family_reports():
    out = {}
    for n in (11, 13):
        k = family_knot(n)
        systems = enumerate_systems(k)
        reference = find_seifert_system(k)
        out[n] = (k, systems, reference, build_reports(systems, reference))
    return out


@criterion(1, "slope pair for every odd n in [11, 41]")
def test_criterion_1_family_slopes(family_rows):
    rows, elapsed = family_rows
    for n in FAMILY_RANGE:
        row = rows[n]
        failures = row["failures"]
        assert "slope_small" not in failures, f"n={n}: first slope missing or unproven"
        assert "slope_big" not in failures, f"n={n}: second slope missing or unproven"
        small, big = expected_family_slopes(n)
        assert row["slope_small"] == str(small)
        assert row["slope_big"] == str(big)
    assert elapsed < 10, f"family verification took {elapsed:.1f}s"
    assert main(["verify-family", "--from", "11", "--to", "41"]) == 0


@criterion(2, "Seifert reference twist 4-2n and slope 0")
def test_criterion_2_seifert_reference(family_rows):
    rows, _ = family_rows
    for n in FAMILY_RANGE:
        row = rows[n]
        assert "reference_twist" not in row["failures"]
        assert row["reference_twist"] == str(4 - 2 * n)
        # the flagged report, found by identity, against the vertex-value derivation
        (flagged,) = [r for r in analyze(family_knot(n), type_ii=False).reports if r.seifert_flag]
        assert is_seifert_candidate(flagged.system) and flagged.slope == 0, f"n={n}"


@criterion(3, "gap equals 2(1/(n-7) - 1/n), decreasing, small for large n")
def test_criterion_3_gap(family_rows):
    rows, _ = family_rows
    gaps = []
    for n in FAMILY_RANGE:
        row = rows[n]
        assert "gap" not in row["failures"]
        gaps.append(Frac.parse(row["gap"]))
    assert gaps[0] == fr("7/22")
    assert gaps[1] == fr("7/39")
    assert all(a > b for a, b in zip(gaps, gaps[1:])), "gap sequence not decreasing"
    for n in (47, 49):
        k = family_knot(n)
        reports = build_reports(enumerate_systems(k), find_seifert_system(k))
        small, big = expected_family_slopes(n)
        slopes = {r.slope for r in reports}
        assert small in slopes and big in slopes
        assert big - small == expected_family_gap(n) < fr("1/10")
    tail = [expected_family_gap(n) for n in range(47, 200, 2)]
    assert all(g < fr("1/10") for g in tail)
    assert all(a > b for a, b in zip(tail, tail[1:]))


@criterion(4, "sheets, Euler characteristics, boundary components")
def test_criterion_4_surface_invariants(family_rows):
    rows, _ = family_rows
    for n in FAMILY_RANGE:
        failures = rows[n]["failures"]
        assert "surface_small_invariants" not in failures, f"n={n}"
        assert "surface_big_invariants" not in failures, f"n={n}"
    # spot-check the identities directly at n = 11 and 13
    for n in (11, 13):
        k = family_knot(n)
        reports = build_reports(enumerate_systems(k), find_seifert_system(k))
        small, big = expected_family_slopes(n)
        r_small = next(r for r in reports if r.slope == small)
        r_big = next(r for r in reports if r.slope == big)
        assert (r_small.sheets, r_big.sheets) == (n, n - 7)
        assert r_small.euler == -n and r_big.euler == -(n - 7)
        assert -r_small.euler == r_small.sheets and -r_big.euler == r_big.sheets
        assert r_small.boundary_components == 1
        # the product rule with the reduced denominator gives 2 components,
        # and the report carries the documented discrepancy note
        assert r_big.boundary_components == 2
        assert r_big.sheets == r_big.boundary_components * r_big.slope.den
        assert r_big.notes, "missing discrepancy note"


@criterion(5, "worked endpoint coordinates at n = 11 and 13")
def test_criterion_5_endpoints():
    expected = {
        11: {
            "gamma": ("10/21", ["-11/21", "10/21", "1/21"]),
            "gamma_prime": ("5/7", ["-1/2", "3/7", "1/14"]),
        },
        13: {
            "gamma": ("12/25", ["-13/25", "12/25", "1/25"]),
            "gamma_prime": ("2/3", ["-1/2", "4/9", "1/18"]),
        },
    }
    for n, cases in expected.items():
        gamma_choices = [
            skeleton("-1/2", "-1/2", "-1"),
            skeleton("2/5", "2/5", "1/2", "0"),
            skeleton(f"1/{n}", f"1/{n}", "0"),
        ]
        prime_choices = [
            skeleton("-1/2"),
            skeleton("2/5", "2/5", "1/2"),
            skeleton(f"1/{n}", f"1/{n}", "0"),
        ]
        for name, choices in (("gamma", gamma_choices), ("gamma_prime", prime_choices)):
            u_expect, vs_expect = cases[name]
            solution = solve_endpoints(choices)
            assert solution is not None, f"n={n} {name}"
            assert str(solution.u0) == u_expect
            vs = []
            weights = iter(solution.weights)
            for ch in choices:
                if ch.constant:
                    vs.append(ch.tangle)
                else:
                    diagram_edge(ch.final_right, ch.final_left)
                    u, v = diagram_uv(ch.final_left, ch.final_right, next(weights))
                    assert str(u) == u_expect
                    vs.append(v)
            assert [str(v) for v in vs] == vs_expect


@criterion(6, "solver agrees with the brute-force oracle")
def test_criterion_6_oracle_equivalence():
    for n in (11, 13):
        checked, reached, mismatched = cross_check(family_knot(n), 64)
        assert mismatched == [], f"n={n}: solver and oracle disagree"
        assert checked > 200 and reached > 5
    compared = 0
    for q in range(2, 14):
        for p in range(-q - 2, q + 3):
            f = Frac(p, q)
            if f.den != q:
                continue
            compared += 1
            generated = {
                (s.constant, s.vertices)
                for s in enumerate_skeletons(f)
                if s.n_edges <= 12
            }
            searched = {(s.constant, s.vertices) for s in exhaustive_paths(f, 12)}
            assert generated == searched, f"path sets differ for {f}"
    assert compared >= 100


@criterion(7, "structural properties: Farey invariants, validation, parity")
def test_criterion_7_structural():
    rng = random.Random(20260810)
    for _ in range(1000):
        q = rng.randrange(2, 200)
        p = rng.randrange(-400, 401)
        f = Frac(p, q)
        if f.is_integer:
            f = Frac(2 * f.num + 1, 2)
        a, b = farey_parents(f)
        assert Frac(a.num + b.num, a.den + b.den) == f  # the mediant
        assert is_farey_edge(a, b) and is_farey_edge(a, f) and is_farey_edge(b, f)
        assert a.den < f.den and b.den < f.den
        # a random point on the edge toward a parent stays on the segment
        t = Frac(rng.randrange(0, 8), 7)
        left, right = (a, f) if a.den < f.den else (f, a)
        diagram_edge(right, left)
        pu, pv = diagram_uv(left, right, t)
        (lu, lv), (ru, rv) = diagram_uv(left), diagram_uv(right)
        assert (pu - lu) * (rv - lv) == (pv - lv) * (ru - lu)
        assert min(lu, ru) <= pu <= max(lu, ru)
    for n in (11, 13):
        k = family_knot(n)
        systems = enumerate_systems(k)
        for system in systems:
            assert validate_system(system) is None
            partial = Frac(0)
            for path in system.paths:
                if not path.is_constant and path.final_weight is not None:
                    partial = partial - 2 * edge_sign(*path.vertices[-2:]) * path.final_weight
            rest = system_twist(system) - partial
            assert rest.den == 1 and rest.num % 2 == 0
