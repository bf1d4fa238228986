"""The Farey diagram: vertices, edges, partial points and their coordinates.

The diagram lives in the uv-plane. For each irreducible fraction p/q there
is an interior vertex <p/q> at ((q-1)/q, p/q) and a boundary vertex <p/q>o
at (1, p/q); the single vertex <inf> sits at (-1, 0). Two interior vertices
<p/q>, <r/s> are joined exactly when |p*s - q*r| = 1, with infinity read as
1/0; every <p/q> is also joined to its boundary partner <p/q>o by a
horizontal edge. The diagram is infinite and never materialized: neighbours
are computed on demand.

A point in the interior of an edge carries a barycentric weight t on the
left vertex and 1-t on the right one. Its coordinates are the projective
(mediant-style) combination

    on <p/q>--<r/s>:   d = t*q + (1-t)*s,  (u, v) = ((d-1)/d, (t*p + (1-t)*r)/d)
    on <p/q>--<p/q>o:  (u, v) = (1 - t/q, p/q)

which is not the affine combination of the fraction values. These two
formulas are the single source of coordinate truth; partial points store
the weight, never coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rationals import Frac


def is_farey_edge(a: Frac, b: Frac) -> bool:
    """Whether <a> and <b> are joined in the diagram: |p*s - q*r| == 1."""
    if a == b:
        raise ValueError("a vertex is not an edge")
    return abs(a.num * b.den - a.den * b.num) == 1


def mediant(a: Frac, b: Frac) -> Frac:
    return Frac(a.num + b.num, a.den + b.den)


def farey_parent_terms(p: int, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The parents of the reduced fraction p/q, q >= 2, as (num, den) pairs
    in increasing order; see ``farey_parents``."""
    s0 = pow(p, -1, q)  # p*s0 = 1 (mod q), 1 <= s0 < q
    r0 = (p * s0 - 1) // q
    # p*s0 - q*r0 = 1 puts r0/s0 just below p/q and the other parent,
    # whose determinant with p/q is -1, just above
    return (r0, s0), (p - r0, q - s0)


def farey_parents(f: Frac) -> tuple[Frac, Frac]:
    """The two neighbours of f with strictly smaller denominator.

    For f = p/q with q >= 2 these are the unique pair (a, b), returned in
    increasing order, such that f is the mediant of a and b; both are
    neighbours of f and of each other. Integers and infinity are rejected
    (their only smaller-denominator neighbour is <inf> itself).
    """
    if f.is_infinite or f.is_integer:
        raise ValueError(f"{f} has no parent pair")
    (r, s), (r1, s1) = farey_parent_terms(f.num, f.den)
    return Frac(r, s), Frac(r1, s1)


# -- vertices ------------------------------------------------------------


@dataclass(frozen=True)
class Vertex:
    """A diagram vertex. kind is "angle" (<p/q>, including <inf>) or
    "circle" (<p/q>o)."""

    kind: str
    value: Frac

    def __post_init__(self):
        if self.kind not in ("angle", "circle"):
            raise ValueError(f"bad vertex kind {self.kind!r}")
        if self.kind == "circle" and self.value.is_infinite:
            raise ValueError("no boundary vertex at infinity")

    def __str__(self) -> str:
        suffix = "o" if self.kind == "circle" else ""
        return f"<{self.value}>{suffix}"


def angle(f: Frac) -> Vertex:
    return Vertex("angle", f)


def circle(f: Frac) -> Vertex:
    return Vertex("circle", f)


def vertex_u(v: Vertex) -> Frac:
    if v.kind == "circle":
        return Frac(1)
    if v.value.is_infinite:
        return Frac(-1)
    return Frac(v.value.den - 1, v.value.den)


# -- edges ---------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    """A diagram edge oriented in traversal order, right to left.

    ``start`` is the right end and ``end`` the left end, so
    u(end) <= u(start), with equality exactly for vertical edges (between
    consecutive integers, both on the v-axis). Horizontal edges are stored
    circle-to-angle so that ``end`` is the angle vertex, matching the
    convention that the angle vertex is the left end.
    """

    start: Vertex
    end: Vertex

    def __post_init__(self):
        s, e = self.start, self.end
        if s.kind == "circle" or e.kind == "circle":
            if not (s.kind == "circle" and e.kind == "angle" and s.value == e.value):
                raise ValueError(f"bad horizontal edge {s}-{e}")
            return
        if s.value.is_infinite:
            raise ValueError("edges cannot start at <inf>")
        if not is_farey_edge(s.value, e.value):
            raise ValueError(f"{s} and {e} are not neighbours")
        if vertex_u(e) > vertex_u(s):
            raise ValueError(f"edge {s}-{e} runs left to right")

    @property
    def kind(self) -> str:
        if self.start.kind == "circle":
            return "horizontal"
        if self.end.value.is_infinite:
            return "infinity"
        return "farey"

    def undirected(self) -> frozenset:
        return frozenset((self.start, self.end))

    def __str__(self) -> str:
        return f"{self.end} - {self.start}"


def diagram_edge(right: Frac, left: Frac) -> Edge:
    """Edge between interior vertices, traversed from <right> to <left>."""
    return Edge(angle(right), angle(left))


def horizontal_edge(f: Frac) -> Edge:
    return Edge(circle(f), angle(f))


def same_triangle(e1: Edge, e2: Edge) -> bool:
    """Whether two distinct edges sharing a vertex bound a common triangle.

    True exactly when the three distinct endpoints are pairwise joined.
    """
    if "horizontal" in (e1.kind, e2.kind):
        raise ValueError("horizontal edges bound no triangle")
    v1 = {e1.start.value, e1.end.value}
    v2 = {e2.start.value, e2.end.value}
    if v1 == v2:
        raise ValueError("edges coincide")
    shared = v1 & v2
    if len(shared) != 1:
        raise ValueError("edges are disjoint")
    a, b = sorted(v1 ^ v2)
    return is_farey_edge(a, b)


# -- partial points ------------------------------------------------------


@dataclass(frozen=True)
class PartialPoint:
    """A point on an edge, with barycentric weight ``weight_left`` on the
    left vertex ``edge.end`` (so weight 1 is the left vertex, 0 the right).

    Traversing fraction t of an edge from the right vertex toward the left
    one stops at the point with weight_left = t; t is also the traversed
    length of the partial edge.
    """

    edge: Edge
    weight_left: Frac

    def __post_init__(self):
        t = self.weight_left
        if t.is_infinite or t < 0 or t > 1:
            raise ValueError(f"weight {t} outside [0, 1]")
        if self.edge.kind == "infinity" and 0 < t < 1:
            raise ValueError("no interior points on edges to <inf>")


def uv_coords(point) -> tuple[Frac, Frac]:
    """Exact uv-coordinates of a Vertex or PartialPoint."""
    if isinstance(point, Vertex):
        return (vertex_u(point), Frac(0) if point.value.is_infinite else point.value)
    if not isinstance(point, PartialPoint):
        raise TypeError(f"cannot locate {point!r}")
    t = point.weight_left
    if t == 0:
        return uv_coords(point.edge.start)
    if t == 1:
        return uv_coords(point.edge.end)
    if point.edge.kind == "horizontal":
        f = point.edge.end.value
        return (Frac(1) - t / Frac(f.den), f)
    left, right = point.edge.end.value, point.edge.start.value
    s = Frac(1) - t
    d = t * Frac(left.den) + s * Frac(right.den)
    u = (d - 1) / d
    v = (t * Frac(left.num) + s * Frac(right.num)) / d
    return (u, v)
