"""Edgepaths for a single tangle: structure, enumeration, signs and twists.

An edgepath encodes how a candidate surface meets one rational tangle. It
runs right to left through the diagram, starting at the tangle's vertex
<p/q>, and is subject to three local conditions: it starts on the tangle's
horizontal edge (E1), it is minimal, never retracing a step nor running
along two sides of one triangle in succession (E2), and its u-coordinate
never increases (E4). A path that is a single point on the horizontal edge
is a constant edgepath.

A path is stored as its Farey vertices, and its diagram edges are built
from them only where validation reads them. The skeleton descent yields
only leftward Farey neighbours; ``path_from_vertices`` builds every pair
from elsewhere as a diagram edge, which rejects any other.

A path is type I, II or III according to the sign of its final
u-coordinate (positive, zero, negative). Each non-boundary edge strictly
right of the v-axis gets a sign: +1 if v increases leftward along it, -1
if it decreases; its twist is -2 * sign * length, where a full edge has
length 1 and a partial edge traversed fraction t has length t. Horizontal
edges, vertical edges and edges to <inf> have no sign and twist 0. Only
the final edge can be partial, so a path's twist and length have the
closed forms

    twist  = -2 * (sum of the full edges' signs + final sign * t)
    length = (number of full edges) + t

with t = 1 for a path ending at a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .farey import (
    Edge,
    PartialPoint,
    diagram_edge,
    farey_parents,
    horizontal_edge,
    is_farey_edge,
    uv_coords,
)
from .rationals import INF, Frac


# -- signs -------------------------------------------------------------------


def edge_sign(right: Frac, left: Frac) -> int | None:
    """The sign of the edge traversed from <right> to <left>: +1 / -1 when
    v increases / decreases, None for the unsigned kinds (vertical edges
    between integers, edges to <inf>)."""
    if left.is_infinite or (left.is_integer and right.is_integer):
        return None
    return 1 if left > right else -1


# -- edgepaths ---------------------------------------------------------------


@dataclass(frozen=True)
class Edgepath:
    """One tangle's edgepath: its vertices in traversal order (right to
    left) from the tangle vertex, each consecutive pair a leftward Farey
    edge. A path that stops part-way along its last edge stores the
    stopping weight in ``final_weight``, strictly between 0 and 1; a path
    ending at a vertex stores None (``PathSkeleton.to_edgepath`` normalizes
    a solved weight of 1 to a fully traversed final edge). Constant paths
    have the tangle as their only vertex and store their point on the
    tangle's horizontal edge.
    """

    tangle: Frac
    vertices: tuple[Frac, ...]
    final_weight: Frac | None = None
    constant_point: PartialPoint | None = None

    def __post_init__(self):
        if self.tangle.is_infinite or self.tangle.is_integer:
            raise ValueError(f"tangle {self.tangle} is not a rational tangle")
        if self.vertices[:1] != (self.tangle,):
            raise ValueError("path must start at the tangle vertex")
        if self.constant_point is not None:
            if len(self.vertices) > 1 or self.final_weight is not None:
                raise ValueError("constant path cannot have steps")
            edge = self.constant_point.edge
            if edge.kind != "horizontal" or edge.end.value != self.tangle:
                raise ValueError("constant point off the tangle's horizontal edge")
            return
        if len(self.vertices) < 2:
            raise ValueError("empty path: use a constant path instead")
        if self.final_weight is not None:
            t = self.final_weight
            if not (0 < t < 1):
                raise ValueError(f"final weight {t} outside (0, 1)")
            if self.vertices[-1].is_infinite:
                raise ValueError("cannot stop part-way toward <inf>")

    @property
    def is_constant(self) -> bool:
        return self.constant_point is not None

    @property
    def steps(self) -> tuple[Edge, ...]:
        """The diagram edges in traversal order, built from the vertices."""
        return tuple(map(diagram_edge, self.vertices, self.vertices[1:]))

    def endpoint(self):
        if self.is_constant:
            return self.constant_point
        last = diagram_edge(*self.vertices[-2:])
        if self.final_weight is not None:
            return PartialPoint(last, self.final_weight)
        return last.end

    def endpoint_uv(self) -> tuple[Frac, Frac]:
        return uv_coords(self.endpoint())

    @property
    def u0(self) -> Frac:
        return self.endpoint_uv()[0]

    def twist(self) -> Frac:
        """-2 * (the full edges' signs + the final sign * final weight),
        unsigned edges counting 0. Constant paths have twist 0."""
        signs = [s or 0 for s in map(edge_sign, self.vertices, self.vertices[1:])]
        t = self.final_weight
        if t is None:
            return Frac(-2 * sum(signs))
        # -2 * (full + last * t) over the weight's denominator: one Frac
        return Frac(-2 * (sum(signs[:-1]) * t.den + signs[-1] * t.num), t.den)

    def length(self) -> Frac:
        """Total traversed length (full edges count 1, the partial final
        edge its weight). Constant paths have length 0."""
        edges = len(self.vertices) - 1
        if self.final_weight is None:
            return Frac(edges)
        return self.final_weight + (edges - 1)

    def last_sign(self) -> int | None:
        if self.is_constant:
            return None
        return edge_sign(*self.vertices[-2:])

    def render(self) -> str:
        """Leftmost point first, then the vertices back to the start, e.g.
        "(1/11)<-1> + (10/11)<-1/2> - <-1/2>"."""
        if self.is_constant:
            t = self.constant_point.weight_left
            f = self.tangle
            return f"({t})<{f}> + ({Frac(1) - t})<{f}>o"
        verts = self.vertices
        if self.final_weight is not None:
            t = self.final_weight
            head = f"({t})<{verts[-1]}> + ({Frac(1) - t})<{verts[-2]}>"
        else:
            head = f"<{verts[-1]}>"
        parts = [head] + [f"<{v}>" for v in reversed(verts[:-1])]
        return " - ".join(parts)


def path_from_vertices(tangle: Frac, vertices, final_weight: Frac | None = None) -> Edgepath:
    """Build a moving path through vertex values from outside the skeleton
    descent (right to left). Every pair is built as a diagram edge, so one
    that is not a leftward Farey edge raises ValueError. A final weight of
    1 is normalized to a fully traversed last edge."""
    verts = tuple(vertices)
    for a, b in zip(verts, verts[1:]):
        diagram_edge(a, b)
    return PathSkeleton(tangle, verts).to_edgepath(final_weight)


def constant_path(tangle: Frac, weight_on_vertex: Frac) -> Edgepath:
    point = PartialPoint(horizontal_edge(tangle), weight_on_vertex)
    return Edgepath(tangle, (tangle,), constant_point=point)


# -- skeleton enumeration ----------------------------------------------------


@dataclass(frozen=True)
class PathSkeleton:
    """A path shape before endpoints are solved: a vertex sequence (right
    to left), or the constant marker. The final edge of a non-maximal
    skeleton is "open": an endpoint solve decides where on it the path
    stops."""

    tangle: Frac
    vertices: tuple[Frac, ...]
    constant: bool = False

    @property
    def n_edges(self) -> int:
        return len(self.vertices) - 1

    @property
    def is_maximal(self) -> bool:
        return self.vertices[-1].is_infinite

    @property
    def final_left(self) -> Frac:
        return self.vertices[-1]

    @property
    def final_right(self) -> Frac:
        return self.vertices[-2]

    def to_edgepath(self, final_weight: Frac | None = None) -> Edgepath:
        if self.constant:
            raise ValueError("constant marker needs a solved weight")
        if final_weight == 1:
            final_weight = None
        return Edgepath(self.tangle, self.vertices, final_weight)

    def __str__(self) -> str:
        if self.constant:
            return f"constant on <{self.tangle}>"
        return " - ".join(f"<{v}>" for v in reversed(self.vertices))


def enumerate_skeletons(tangle: Frac) -> list[PathSkeleton]:
    """All leftward path shapes for a tangle.

    Descent through parent pairs: from each fraction vertex the candidate
    moves are its two parents, minus any move that retraces or runs along
    two sides of one triangle with the arriving edge; each integer reached
    continues to <inf>. Every prefix is emitted (solver choices truncate
    skeletons anywhere), the maximal paths end at <inf>, and the constant
    marker is included. Order: constant marker first, then prefixes sorted
    by vertex sequence.

    The descent is an iterative pre-order walk with an explicit stack, so
    path length is not bounded by the recursion limit. Children are
    visited in ascending order, and all prefixes share the first vertex,
    so pre-order already is the sorted order and nothing is sorted.
    """
    if tangle.is_infinite or tangle.is_integer:
        raise ValueError(f"tangle {tangle} is not a rational tangle")
    out = [PathSkeleton(tangle, (tangle,), constant=True)]
    stack = [(tangle,)]
    while stack:
        prefix = stack.pop()
        out.append(PathSkeleton(tangle, prefix))
        cur = prefix[-1]
        if cur.is_infinite:
            continue
        if cur.is_integer:
            nxt = [INF]
        else:
            nxt = list(farey_parents(cur))
        if len(prefix) >= 2:
            back = prefix[-2]
            nxt = [y for y in nxt if y != back and not is_farey_edge(back, y)]
        # pushed largest first, so the smallest child is visited next
        for y in reversed(nxt):
            stack.append(prefix + (y,))
    return out
