"""Edgepaths for a single tangle: structure, enumeration, signs and twists.

An edgepath encodes how a candidate surface meets one rational tangle. It
runs right to left through the diagram, starting at the tangle's vertex
<p/q>, and is subject to three local conditions: it starts on the tangle's
horizontal edge (E1), it is minimal, never retracing a step nor running
along two sides of one triangle in succession (E2), and its u-coordinate
never increases (E4). A path that is a single point on the horizontal edge
is a constant edgepath.

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


def edge_sign(edge: Edge) -> int | None:
    """+1 / -1 for increasing / decreasing edges, None for the unsigned
    kinds (horizontal, vertical, edges to <inf>)."""
    if edge.kind != "farey":
        return None
    return 1 if edge.end.value > edge.start.value else -1


# -- edgepaths ---------------------------------------------------------------


@dataclass(frozen=True)
class Edgepath:
    """One tangle's edgepath.

    ``steps`` are edges in traversal order (right to left). A path that
    stops part-way along its last edge stores the stopping weight in
    ``final_weight``, strictly between 0 and 1; a path ending at a vertex
    stores None (a solved weight of 1 is normalized to a fully traversed
    final edge by ``path_from_vertices``). Constant paths have no steps and
    store their point on the tangle's horizontal edge.
    """

    tangle: Frac
    steps: tuple[Edge, ...] = ()
    final_weight: Frac | None = None
    constant_point: PartialPoint | None = None

    def __post_init__(self):
        if self.tangle.is_infinite or self.tangle.is_integer:
            raise ValueError(f"tangle {self.tangle} is not a rational tangle")
        if self.constant_point is not None:
            if self.steps or self.final_weight is not None:
                raise ValueError("constant path cannot have steps")
            edge = self.constant_point.edge
            if edge.kind != "horizontal" or edge.end.value != self.tangle:
                raise ValueError("constant point off the tangle's horizontal edge")
            return
        if not self.steps:
            raise ValueError("empty path: use a constant path instead")
        if self.steps[0].start.value != self.tangle:
            raise ValueError("path must start at the tangle vertex")
        for a, b in zip(self.steps, self.steps[1:]):
            if a.end != b.start:
                raise ValueError("steps do not chain")
        if self.final_weight is not None:
            t = self.final_weight
            if not (0 < t < 1):
                raise ValueError(f"final weight {t} outside (0, 1)")
            if self.steps[-1].kind == "infinity":
                raise ValueError("cannot stop part-way toward <inf>")

    @property
    def is_constant(self) -> bool:
        return self.constant_point is not None

    @property
    def vertices(self) -> tuple[Frac, ...]:
        if self.is_constant:
            return (self.tangle,)
        return (self.steps[0].start.value,) + tuple(s.end.value for s in self.steps)

    def endpoint(self):
        if self.is_constant:
            return self.constant_point
        if self.final_weight is not None:
            return PartialPoint(self.steps[-1], self.final_weight)
        return self.steps[-1].end

    def endpoint_uv(self) -> tuple[Frac, Frac]:
        return uv_coords(self.endpoint())

    @property
    def u0(self) -> Frac:
        return self.endpoint_uv()[0]

    def twist(self) -> Frac:
        """-2 * (the full edges' signs + the final sign * final weight),
        unsigned edges counting 0. Constant paths have twist 0."""
        signs = [edge_sign(edge) or 0 for edge in self.steps]
        t = self.final_weight
        if t is None:
            return Frac(-2 * sum(signs))
        # -2 * (full + last * t) over the weight's denominator: one Frac
        return Frac(-2 * (sum(signs[:-1]) * t.den + signs[-1] * t.num), t.den)

    def length(self) -> Frac:
        """Total traversed length (full edges count 1, the partial final
        edge its weight). Constant paths have length 0."""
        if self.final_weight is None:
            return Frac(len(self.steps))
        return self.final_weight + (len(self.steps) - 1)

    def last_sign(self) -> int | None:
        if self.is_constant:
            return None
        return edge_sign(self.steps[-1])

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
            tail = verts[:-1]
        else:
            head = f"<{verts[-1]}>"
            tail = verts[:-1]
        parts = [head] + [f"<{v}>" for v in reversed(tail)]
        return " - ".join(parts)


def path_from_vertices(tangle: Frac, vertices, final_weight: Frac | None = None) -> Edgepath:
    """Build a moving path through the given vertex values (right to left).

    A final weight of 1 is normalized to a fully traversed last edge.
    """
    verts = tuple(vertices)
    if len(verts) < 2:
        raise ValueError("a moving path needs at least one edge")
    steps = tuple(diagram_edge(a, b) for a, b in zip(verts, verts[1:]))
    if final_weight is not None and final_weight == 1:
        final_weight = None
    return Edgepath(tangle=tangle, steps=steps, final_weight=final_weight)


def constant_path(tangle: Frac, weight_on_vertex: Frac) -> Edgepath:
    point = PartialPoint(horizontal_edge(tangle), weight_on_vertex)
    return Edgepath(tangle=tangle, constant_point=point)


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
        return path_from_vertices(self.tangle, self.vertices, final_weight)

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
