"""Skeleton enumeration, signs, twists, classification, rendering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from montesinos import (
    INF,
    Frac,
    PathSkeleton,
    constant_path,
    edge_sign,
    enumerate_skeletons,
    farey_parents,
    is_farey_edge,
    path_from_vertices,
    penultimate_vertex,
)
from montesinos.edgepaths import single_class_maximal_skeleton

from helpers import (
    fr,
    sign_by_definition,
    skeleton,
    twist_and_length_by_edge,
)


def check_minimal_monotone(vertices):
    """E2/E4 checker written from the determinant definitions, independent
    of the generator's pruning."""
    for a, b in zip(vertices, vertices[1:]):
        det = abs(a.num * b.den - a.den * b.num)
        assert det == 1, f"{a}-{b} is not an edge"
        assert b.den < a.den, "denominators must strictly decrease"
    for a, x, b in zip(vertices, vertices[1:], vertices[2:]):
        assert a != b, "retraced step"
        det = abs(a.num * b.den - a.den * b.num)
        assert det != 1, f"{a}-{x}-{b} runs along one triangle"


# -- enumeration --------------------------------------------------------


def test_skeletons_of_one_third():
    maximal = [s.vertices for s in enumerate_skeletons(fr("1/3")) if s.is_maximal]
    assert (fr("1/3"), fr("1/2"), fr("1"), INF) in maximal
    assert (fr("1/3"), fr("0"), INF) in maximal
    assert len(maximal) == 2


def test_skeletons_of_two_fifths_contain_reference_path():
    vertex_lists = [s.vertices for s in enumerate_skeletons(fr("2/5")) if not s.constant]
    assert (fr("2/5"), fr("1/2"), fr("0"), INF) in vertex_lists


def test_skeletons_of_one_over_n():
    n = 11
    skels = [s.vertices for s in enumerate_skeletons(Frac(1, n)) if not s.constant]
    long_path = tuple(Frac(1, k) for k in range(n, 0, -1)) + (INF,)
    assert long_path in skels
    assert (Frac(1, n), Frac(0), INF) in skels


def test_prefix_closure_and_dedupe():
    skels = enumerate_skeletons(fr("3/7"))
    shapes = [s.vertices for s in skels]
    assert len(shapes) == len(set(shapes))
    for verts in shapes:
        for cut in range(1, len(verts) + 1):
            assert verts[:cut] in shapes
    # the root is the one node with no edges, and the constant choice
    assert [s.vertices for s in skels if s.n_edges == 0] == [(fr("3/7"),)]
    assert [s for s in skels if s.constant] == [skels[0]]


def test_constant_marker_first_and_deterministic_order():
    skels = enumerate_skeletons(fr("2/5"))
    assert skels[0].constant
    again = enumerate_skeletons(fr("2/5"))
    assert skels == again
    moving = [s.vertices for s in skels if not s.constant]
    assert moving == sorted(moving)


def recursive_sorted_skeletons(tangle):
    """Vertex sequences from a recursive descent followed by a sort: the
    reference order the iterative walk must reproduce."""
    found = []

    def descend(prefix):
        found.append(prefix)
        cur = prefix[-1]
        if cur.is_infinite:
            return
        nxt = [INF] if cur.is_integer else list(farey_parents(cur))
        if len(prefix) >= 2:
            back = prefix[-2]
            nxt = [y for y in nxt if y != back and not is_farey_edge(back, y)]
        for y in nxt:
            descend(prefix + (y,))

    descend((tangle,))
    return sorted(found)


@pytest.mark.parametrize("tangle", ["1/11", "2/5", "-5/13", "13/34"])
def test_skeleton_order_matches_recursive_sorted_descent(tangle):
    shapes = [s.vertices for s in enumerate_skeletons(fr(tangle))]
    assert shapes == recursive_sorted_skeletons(fr(tangle))


def test_deep_tangle_descends_without_recursion():
    n = 5001
    skels = enumerate_skeletons(Frac(1, n))
    assert len(skels) == 5004
    # pre-order in O(L), root first: every node comes after its parent
    assert skels[0].parent is None
    emitted = set()
    for sk in skels:
        assert sk.parent is None or id(sk.parent) in emitted
        emitted.add(id(sk))
    # the chain through every 1/k is the last branch, so it comes last
    assert skels[-1].vertices == tuple(Frac(1, k) for k in range(n, 0, -1)) + (INF,)


small_tangles = st.builds(
    Frac,
    st.integers(min_value=-15, max_value=15),
    st.integers(min_value=2, max_value=13),
).filter(lambda f: f.den >= 2)


@given(small_tangles)
def test_enumerated_skeletons_are_minimal_and_monotone(tangle):
    for sk in enumerate_skeletons(tangle):
        if not sk.constant:
            check_minimal_monotone(sk.vertices)


@given(small_tangles)
def test_bounded_descent(tangle):
    # at most den full edges strictly right of the v-axis
    for sk in enumerate_skeletons(tangle):
        if sk.constant:
            continue
        fraction_edges = sum(1 for v in sk.vertices[1:] if not v.is_infinite)
        assert fraction_edges <= tangle.den


def test_integer_tangle_rejected():
    with pytest.raises(ValueError):
        enumerate_skeletons(Frac(3))


# -- signs and twists ----------------------------------------------------


def test_edge_signs():
    assert edge_sign(fr("2/5"), fr("1/2")) == 1
    assert edge_sign(fr("-1/2"), fr("-1")) == -1
    assert edge_sign(fr("0"), INF) is None
    assert edge_sign(fr("0"), fr("1")) is None  # vertical


def test_edge_twists():
    # a full edge adds -2 * sign, a partial one -2 * sign * t
    assert path_from_vertices(fr("2/5"), [fr("2/5"), fr("1/2")]).twist() == Frac(-2)
    assert path_from_vertices(fr("1/2"), [fr("1/2"), fr("0")], Frac(1, 11)).twist() == Frac(2, 11)
    # vertical edges and edges to <inf> add nothing after the signed <1/2>-<1>
    assert path_from_vertices(fr("1/2"), [fr("1/2"), fr("1")]).twist() == Frac(-2)
    assert path_from_vertices(fr("1/2"), [fr("1/2"), fr("1"), fr("2")]).twist() == Frac(-2)
    assert path_from_vertices(fr("1/2"), [fr("1/2"), fr("1"), INF]).twist() == Frac(-2)
    const = constant_path(fr("-1/2"), fr("4/7"))
    assert const.twist() == 0 and const.length() == 0


def test_path_twist_is_sum_of_steps():
    path = path_from_vertices(fr("2/5"), [fr("2/5"), fr("1/2"), fr("0")], Frac(1, 11))
    assert path.twist() == Frac(-2) + Frac(2, 11)
    assert path.length() == 1 + Frac(1, 11)


@given(small_tangles, st.data())
def test_closed_form_twist_and_length_match_the_edge_sum(tangle, data):
    skeletons = enumerate_skeletons(tangle)
    # every node's stored sums against its vertex values alone
    for sk in skeletons[1:]:  # past the root
        verts = sk.vertices
        path = sk.to_edgepath()
        assert path.last_sign() == sign_by_definition(verts[-2], verts[-1])
        assert path.twist() == twist_and_length_by_edge(path)[0]
        if sk.is_maximal:
            assert penultimate_vertex(path).num % 2 == verts[-2].num % 2
            assert sk.final_right.num % 2 == verts[-2].num % 2
    moving = [sk for sk in skeletons if sk.n_edges >= 1]
    sk = data.draw(st.sampled_from(moving))
    if sk.is_maximal:
        weight = Frac(1)  # a path cannot stop part-way toward <inf>
    else:
        den = data.draw(st.integers(1, 12))
        weight = Frac(data.draw(st.integers(1, den)), den)
    path = sk.to_edgepath(weight)
    assert (path.twist(), path.length()) == twist_and_length_by_edge(path)


@given(small_tangles)
def test_twist_negation_symmetry(tangle):
    mirrored = -tangle
    twists = sorted(
        s.to_edgepath(Frac(1, 3)).twist()
        for s in enumerate_skeletons(tangle)
        if 1 <= s.n_edges and not s.final_left.is_infinite
    )
    mirrored_twists = sorted(
        -s.to_edgepath(Frac(1, 3)).twist()
        for s in enumerate_skeletons(mirrored)
        if 1 <= s.n_edges and not s.final_left.is_infinite
    )
    assert twists == mirrored_twists


# -- classification -------------------------------------------------------


def test_classification():
    type_one = path_from_vertices(fr("-1/2"), [fr("-1/2"), fr("-1")], Frac(1, 11))
    assert type_one.u0 == fr("10/21")
    type_three = path_from_vertices(fr("-1/2"), [fr("-1/2"), fr("-1"), INF])
    assert type_three.u0 < 0
    type_two = path_from_vertices(fr("2/5"), [fr("2/5"), fr("1/2"), fr("0")])
    assert type_two.u0 == 0


def test_constant_path_is_type_one():
    path = constant_path(fr("-1/2"), fr("4/7"))
    assert path.endpoint_uv() == (fr("5/7"), fr("-1/2"))


# None is Edgepath(PathSkeleton(tangle)) with no weight: a root needs one
@pytest.mark.parametrize("weight", [Frac(3, 2), Frac(-1, 7), INF, None])
def test_constant_weight_outside_the_horizontal_edge_is_refused(weight):
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        constant_path(fr("-1/2"), weight)


def test_constant_weight_ends_are_the_edge_ends():
    assert constant_path(fr("-1/2"), Frac(1)).endpoint_uv() == (fr("1/2"), fr("-1/2"))
    assert constant_path(fr("-1/2"), Frac(0)).endpoint_uv() == (Frac(1), fr("-1/2"))


# -- structure and rendering ----------------------------------------------


def test_weight_one_normalizes_to_full_edge():
    path = path_from_vertices(fr("2/5"), [fr("2/5"), fr("1/2")], Frac(1))
    assert path.final_weight is None
    assert path.endpoint_uv() == (fr("1/2"), fr("1/2"))


def test_render_notation():
    partial = path_from_vertices(fr("-1/2"), [fr("-1/2"), fr("-1")], Frac(1, 11))
    assert partial.render() == "(1/11)<-1> + (10/11)<-1/2> - <-1/2>"
    full = path_from_vertices(fr("2/5"), [fr("2/5"), fr("1/2"), fr("0"), INF])
    assert full.render() == "<inf> - <0> - <1/2> - <2/5>"
    const = constant_path(fr("-1/2"), fr("4/7"))
    assert const.render() == "(4/7)<-1/2> + (3/7)<-1/2>o"


def test_render_walks_the_vertices_once(monkeypatch):
    sk = skeleton("-1/2", "-1/2", "-1")
    path, twin = sk.to_edgepath(Frac(1, 11)), sk.to_edgepath(Frac(1, 11))
    walks = [0]
    vertices = PathSkeleton.vertices

    def counted(node):
        walks[0] += 1
        return vertices.fget(node)

    monkeypatch.setattr(PathSkeleton, "vertices", property(counted))
    text = path.render()
    assert text == "(1/11)<-1> + (10/11)<-1/2> - <-1/2>" and walks[0] == 1
    assert path.render() is text and walks[0] == 1
    # the kept rendering takes no part in equality, hashing or repr
    assert path == twin and hash(path) == hash(twin) and walks[0] == 1
    assert twin.render() == text and walks[0] == 2
    assert repr(path) == repr(sk.to_edgepath(Frac(1, 11))) and "render" not in repr(path)
    # a rendered and an unrendered path stay equal; another weight is another path
    fresh = sk.to_edgepath(Frac(1, 11))
    assert path == fresh and fresh == path and hash(path) == hash(fresh)
    other = sk.to_edgepath(Frac(2, 11))
    assert path != other and other != path


def test_malformed_paths_rejected():
    with pytest.raises(ValueError):
        path_from_vertices(fr("2/5"), [fr("1/2"), fr("0")])  # wrong start
    with pytest.raises(ValueError):
        path_from_vertices(fr("2/5"), [fr("2/5"), fr("1/2"), INF], Frac(1, 2))
    with pytest.raises(ValueError):
        path_from_vertices(fr("2/5"), [fr("2/5")])  # no edge
    with pytest.raises(ValueError):
        path_from_vertices(fr("2/5"), [fr("2/5"), fr("1/5")])  # not neighbours
    with pytest.raises(ValueError):
        path_from_vertices(fr("1/2"), [fr("1/2"), fr("2/5")])  # runs rightward


def test_skeleton_equality_builds_no_vertex_tuple(monkeypatch):
    tangle = fr("1/11")
    tree = enumerate_skeletons(tangle)
    walked = single_class_maximal_skeleton(tangle, 1)
    (twin,) = [sk for sk in tree if sk.vertices == walked.vertices]
    monkeypatch.setattr(PathSkeleton, "vertices", property(lambda sk: pytest.fail("vertex tuple built")))
    assert twin is not walked and twin == walked and hash(twin) == hash(walked)
    assert [sk for sk in tree if sk == walked] == [twin]


def test_skeleton_str_and_helpers():
    sk = skeleton("2/5", "2/5", "1/2", "0")
    assert sk.final_left == fr("0") and sk.final_right == fr("1/2")
    assert sk.n_edges == 2 and not sk.is_maximal
    assert skeleton("2/5").constant
