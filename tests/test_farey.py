"""Diagram combinatorics: adjacency, parents, leftward edges, triangles,
coordinates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from montesinos import INF, Frac, diagram_edge, farey_parents, is_farey_edge
from montesinos.bruteforce import _denominator_scan_neighbours
from montesinos.farey import diagram_uv, horizontal_uv

from helpers import fr


def mediant(a: Frac, b: Frac) -> Frac:
    return Frac(a.num + b.num, a.den + b.den)


def brute_force_parents(f: Frac):
    """Independent oracle: scan every denominator below f's for neighbours
    whose mediant is f."""
    hits = []
    for s in range(1, f.den):
        for r in range(-abs(f.num) - s - 2, abs(f.num) + s + 3):
            a = Frac(r, s)
            if a.den != s:
                continue
            if abs(a.num * f.den - a.den * f.num) == 1:
                hits.append(a)
    pairs = [
        (a, b)
        for i, a in enumerate(hits)
        for b in hits[i + 1 :]
        if mediant(a, b) == f or mediant(b, a) == f
    ]
    assert len(pairs) == 1
    a, b = pairs[0]
    return (a, b) if a < b else (b, a)


# -- adjacency ----------------------------------------------------------


def test_is_farey_edge_examples():
    assert is_farey_edge(fr("1/2"), fr("2/5"))
    assert not is_farey_edge(fr("1/2"), fr("1/4"))
    assert is_farey_edge(INF, fr("7"))


def test_is_farey_edge_rejects_equal():
    with pytest.raises(ValueError):
        is_farey_edge(fr("1/2"), fr("1/2"))


# -- parents ------------------------------------------------------------


def test_parents_examples():
    assert farey_parents(fr("2/5")) == (fr("1/3"), fr("1/2"))
    assert farey_parents(fr("-1/2")) == (fr("-1"), fr("0"))
    for n in (5, 11, 19):
        assert farey_parents(Frac(1, n)) == (Frac(0), Frac(1, n - 1))


def test_parents_reject_integers_and_infinity():
    with pytest.raises(ValueError):
        farey_parents(Frac(3))
    with pytest.raises(ValueError):
        farey_parents(INF)


def test_parents_against_brute_force():
    for q in range(2, 14):
        for p in range(-q - 2, q + 3):
            f = Frac(p, q)
            if f.den != q:
                continue
            assert farey_parents(f) == brute_force_parents(f)


reduced = st.builds(
    Frac,
    st.integers(min_value=-400, max_value=400),
    st.integers(min_value=2, max_value=120),
).filter(lambda f: f.den >= 2)


@given(reduced)
def test_parent_properties(f):
    a, b = farey_parents(f)
    assert mediant(a, b) == f
    assert is_farey_edge(a, b)
    assert is_farey_edge(a, f) and is_farey_edge(b, f)
    assert a.den < f.den and b.den < f.den


# -- leftward edges -----------------------------------------------------


def accepts(right: Frac, left: Frac) -> bool:
    try:
        diagram_edge(right, left)
    except ValueError:
        return False
    return True


def test_leftward_edges_against_the_denominator_scan():
    # every reduced p/q with 2 <= q <= 30 and |p| < 3q, against each
    # candidate r/s with s <= q + 1 near it and <inf>: accepted exactly
    # when the scan lists it as a smaller-denominator neighbour
    compared = 0
    for q in range(2, 31):
        for p in range(-3 * q + 1, 3 * q):
            f = Frac(p, q)
            if f.den != q:
                continue
            candidates = {INF}
            for s in range(1, q + 2):
                near = p * s // q
                candidates.update(Frac(r, s) for r in range(near - 2, near + 4))
            candidates.discard(f)
            accepted = sorted(g for g in candidates if accepts(f, g))
            assert accepted == _denominator_scan_neighbours(f), str(f)
            compared += 1
    assert compared > 1000


def test_integer_edges():
    for z in range(-5, 6):
        assert accepts(Frac(z), Frac(z + 1)) and accepts(Frac(z), Frac(z - 1))
        assert accepts(Frac(z), INF)
        assert not accepts(INF, Frac(z))
        assert not accepts(Frac(z), Frac(z + 2))


# -- triangles ----------------------------------------------------------


def test_same_triangle_examples():
    # edges <x>-<a> and <x>-<b> bound one triangle exactly when <a> and
    # <b> are joined too: one determinant over the vertex triple
    for right, left in (("2/5", "1/2"), ("2/5", "1/3"), ("1", "0"), ("0", "inf"), ("1/2", "0"), ("0", "-1")):
        diagram_edge(fr(right), fr(left))
    assert is_farey_edge(fr("1/2"), fr("1/3"))
    assert is_farey_edge(fr("1"), INF)
    assert not is_farey_edge(fr("1/2"), fr("-1"))


def test_same_triangle_rejects_equal():
    # a triple <a> - <x> - <a> is a retrace, not a triangle
    with pytest.raises(ValueError):
        is_farey_edge(fr("2/5"), fr("2/5"))


# -- coordinates --------------------------------------------------------


def test_vertex_coordinates():
    assert diagram_uv(INF) == (Frac(-1), Frac(0))
    assert diagram_uv(fr("2/5")) == (fr("4/5"), fr("2/5"))
    assert horizontal_uv(fr("2/5"), Frac(0)) == (Frac(1), fr("2/5"))  # <2/5>o
    assert diagram_uv(fr("0")) == (Frac(0), Frac(0))


def test_partial_point_coordinates():
    assert diagram_uv(fr("-1"), fr("-1/2"), Frac(1, 11)) == (fr("10/21"), fr("-11/21"))
    assert horizontal_uv(fr("-1/2"), fr("4/7")) == (fr("5/7"), fr("-1/2"))


def test_partial_point_degeneration():
    left, right = fr("1/2"), fr("2/5")
    assert diagram_uv(left, right, Frac(0)) == diagram_uv(right)
    assert diagram_uv(left, right, Frac(1)) == diagram_uv(left)
    assert horizontal_uv(left, Frac(1)) == diagram_uv(left)


def test_u_coordinate_increases_with_denominator():
    us = [diagram_uv(Frac(1, q))[0] for q in range(1, 30)]
    assert all(a < b for a, b in zip(us, us[1:]))
    assert all(Frac(0) < u < Frac(1) for u in us[1:])


@given(reduced, st.integers(0, 60), st.integers(0, 60))
def test_points_are_collinear_with_edge_ends(f, k, l):
    if k == 0 and l == 0:
        return
    a, b = farey_parents(f)
    # weight k on the left (smaller-u) end, l on the right
    left, right = (a, f) if a.den < f.den else (f, a)
    diagram_edge(right, left)
    pu, pv = diagram_uv(left, right, Frac(k, k + l))
    lu, lv = diagram_uv(left)
    ru, rv = diagram_uv(right)
    cross = (pu - lu) * (rv - lv) - (pv - lv) * (ru - lu)
    assert cross == 0


def test_edge_direction_enforced():
    with pytest.raises(ValueError, match="runs left to right"):
        diagram_edge(fr("1/2"), fr("2/5"))
    with pytest.raises(ValueError, match="are not neighbours"):
        diagram_edge(fr("1/2"), fr("1/5"))
    with pytest.raises(ValueError, match="cannot start at <inf>"):
        diagram_edge(INF, fr("0"))
