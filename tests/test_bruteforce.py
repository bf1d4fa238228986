"""Agreement between the exact solver and the brute-force verifiers."""

from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from montesinos import (
    Frac,
    MontesinosKnot,
    WeightVector,
    brute_force_endpoints,
    enumerate_skeletons,
    exhaustive_paths,
    normalize_weight_vector,
    solve_endpoints,
)
from montesinos.bruteforce import cross_check
from montesinos.rationals import INF
from montesinos.systems import DegenerateSystemError

from helpers import fr, knot, skeleton


def test_integer_weights_for_first_system():
    choices = [
        skeleton("-1/2", "-1/2", "-1"),
        skeleton("2/5", "2/5", "1/2", "0"),
        skeleton("1/11", "1/11", "0"),
    ]
    vectors = brute_force_endpoints(choices, 11)
    assert WeightVector(11, (1, 1, 10)) in vectors
    solution = solve_endpoints(choices)
    for v in vectors:
        assert normalize_weight_vector(v, choices) == solution


def test_integer_weights_with_constant_path():
    choices = [
        skeleton("-1/2"),
        skeleton("2/5", "2/5", "1/2"),
        skeleton("1/11", "1/11", "0"),
    ]
    vectors = brute_force_endpoints(choices, 4)
    assert WeightVector(4, (2, 3)) in vectors
    solution = solve_endpoints(choices)
    assert normalize_weight_vector(vectors[0], choices) == solution


def test_infeasible_choice_finds_nothing():
    choices = [
        skeleton("-1/2", "-1/2", "-1"),
        skeleton("2/5", "2/5", "1/2"),
        skeleton("1/11", "1/11", "0"),
    ]
    assert solve_endpoints(choices) is None
    assert brute_force_endpoints(choices, 24) == []


def test_degenerate_family_is_symmetric():
    # the solver flags this as degenerate; the scan exposes the family and
    # every member has equal weights
    choices = [skeleton("1/2", "1/2", "0"), skeleton("-1/2", "-1/2", "0")]
    with pytest.raises(DegenerateSystemError):
        solve_endpoints(choices)
    vectors = brute_force_endpoints(choices, 8)
    assert vectors
    assert all(v.k[0] == v.k[1] for v in vectors)


def test_scan_order_independent():
    choices = [
        skeleton("-1/2", "-1/2", "-1"),
        skeleton("2/5", "2/5", "1/2", "0"),
        skeleton("1/11", "1/11", "0"),
    ]
    a = brute_force_endpoints(choices, 33)
    b = brute_force_endpoints(list(choices), 33)
    assert a == b
    assert {(v.m, v.k) for v in a} == {(v.m * 1, v.k) for v in b}


def test_m_max_validation():
    with pytest.raises(ValueError):
        brute_force_endpoints([skeleton("2/5", "2/5", "1/2")], 0)


# -- path search ------------------------------------------------------------


def test_exhaustive_paths_for_one_half():
    got = {(s.constant, s.vertices) for s in exhaustive_paths(fr("1/2"), 2)}
    expect = {
        (True, (fr("1/2"),)),
        (False, (fr("1/2"), fr("0"))),
        (False, (fr("1/2"), fr("0"), INF)),
        (False, (fr("1/2"), fr("1"))),
        (False, (fr("1/2"), fr("1"), INF)),
    }
    assert got == expect


def test_exhaustive_paths_depth_zero():
    got = exhaustive_paths(fr("2/5"), 0)
    assert [(s.constant, s.vertices) for s in got] == [(True, (fr("2/5"),))]


@pytest.mark.parametrize("tangle", ["2/5", "-1/2", "3/7", "-5/8", "7/3", "1/11"])
def test_generator_agrees_with_unpruned_search(tangle):
    t = fr(tangle)
    depth = 8
    generated = {
        (s.constant, s.vertices)
        for s in enumerate_skeletons(t)
        if s.n_edges <= depth
    }
    searched = {(s.constant, s.vertices) for s in exhaustive_paths(t, depth)}
    assert generated == searched


def test_every_brute_vector_normalizes_into_the_solver(k_spec="-1/2,2/5,1/13"):
    checked, reached, mismatched = cross_check(knot(k_spec), 16)
    assert mismatched == []
    assert checked > reached > 0


# -- seeded differential test over small random knots ------------------------


# 3-tangle knots with denominators up to 7, at most one of them even
small_tangles = st.tuples(st.integers(-14, 14), st.integers(2, 7)).filter(lambda pq: gcd(*pq) == 1)
small_knots = st.lists(small_tangles, min_size=3, max_size=3).filter(
    lambda ts: sum(q % 2 == 0 for _, q in ts) <= 1
)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@example([(1, 3), (1, 3), (1, 3)])
@example([(-2, 3), (3, 5), (-1, 7)])
@given(small_knots)
def test_solver_agrees_with_brute_force_on_random_knots(tangles):
    k = MontesinosKnot(tuple(Frac(p, q) for p, q in tangles))
    assert cross_check(k, 12)[2] == []
