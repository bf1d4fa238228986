"""The Farey diagram as integer tests on vertex values, and its coordinates.

The diagram lives in the uv-plane. For each irreducible fraction p/q there
is an interior vertex <p/q> at ((q-1)/q, p/q) and a boundary vertex <p/q>o
at (1, p/q); the single vertex <inf> sits at (-1, 0). Two interior vertices
<p/q>, <r/s> are joined exactly when |p*s - q*r| = 1, with infinity read as
1/0; every <p/q> is also joined to its boundary partner <p/q>o by a
horizontal edge. The diagram is infinite and never materialized: vertices
are ``Frac`` values, and edges and triangles are determinant tests on them.
Paths run right to left, and u = 1 - 1/q grows with the denominator, so an
edge runs leftward exactly when its denominator does not increase (<inf>
has denominator 0).

A point in the interior of an edge carries a barycentric weight t on the
left vertex and 1-t on the right one. Its coordinates are the projective
(mediant-style) combination

    on <p/q>--<r/s>:   d = t*q + (1-t)*s,  (u, v) = ((d-1)/d, (t*p + (1-t)*r)/d)
    on <p/q>--<p/q>o:  (u, v) = (1 - t/q, p/q)

which is not the affine combination of the fraction values. ``diagram_uv``
and ``horizontal_uv`` are these two formulas, the only coordinate code in
the package; paths store weights, never coordinates.
"""

from __future__ import annotations

from .rationals import Frac


def is_farey_edge(a: Frac, b: Frac) -> bool:
    """Whether <a> and <b> are joined in the diagram: |p*s - q*r| == 1."""
    if a == b:
        raise ValueError("a vertex is not an edge")
    return abs(a.num * b.den - a.den * b.num) == 1


def diagram_edge(right: Frac, left: Frac) -> None:
    """Check that <right> to <left> is a diagram edge traversed right to
    left: the two are joined and the denominator does not increase.
    Raises ValueError otherwise."""
    if right.is_infinite:
        raise ValueError("edges cannot start at <inf>")
    if not is_farey_edge(right, left):
        raise ValueError(f"<{right}> and <{left}> are not neighbours")
    if left.den > right.den:
        raise ValueError(f"edge <{right}>-<{left}> runs left to right")


def diagram_uv(left: Frac, right: Frac | None = None, t: Frac | None = None) -> tuple[Frac, Frac]:
    """The uv-coordinates of the vertex <left>, or, given a weight t, of
    the point with weight t on <left> and 1 - t on <right> of the edge
    between them. With t = a/b the formula's d*b is the integer
    a*q + (b-a)*s, so u and v are each one ``Frac``."""
    if t is None:
        return (Frac(-1), Frac(0)) if left.is_infinite else (Frac(left.den - 1, left.den), left)
    a, b = t.num, t.den
    d = a * left.den + (b - a) * right.den
    return Frac(d - b, d), Frac(a * left.num + (b - a) * right.num, d)


def horizontal_uv(f: Frac, t: Frac) -> tuple[Frac, Frac]:
    """The point with weight t on <f> and 1 - t on <f>o: (1 - t/q, p/q)."""
    return Frac(t.den * f.den - t.num, t.den * f.den), f


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
