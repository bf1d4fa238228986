"""Edgepaths for a single tangle: structure, enumeration, signs and twists.

An edgepath encodes how a candidate surface meets one rational tangle. It
runs right to left through the diagram, starting at the tangle's vertex
<p/q>, and is subject to three local conditions: it starts on the tangle's
horizontal edge (E1), it is minimal, never retracing a step nor running
along two sides of one triangle in succession (E2), and its u-coordinate
never increases (E4). A path that is a single point on the horizontal edge
is a constant edgepath.

A tangle's path shapes form a tree rooted at its vertex: a
``PathSkeleton`` is one node, holding its last vertex and a pointer to
its parent, the shape one edge shorter, so every shape costs O(1) memory
and the vertex sequence is read back by walking the parent pointers. The
skeleton descent yields only leftward Farey neighbours;
``path_from_vertices`` checks every pair from elsewhere with
``farey.diagram_edge``, which rejects any other. An ``Edgepath`` is a node
plus where the path stops on the node's last edge. The root's last edge
is the horizontal edge from <p/q>o to <p/q>, so a constant path is the
root plus its weight on the vertex.

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

with t = 1 for a path ending at a vertex. Each node carries its edge
count and the running sum of its edges' signs, so both forms, and the
final sign (the node's sum minus its parent's), are read in O(1).
"""

from __future__ import annotations

from .farey import diagram_edge, diagram_uv, farey_parent_terms, horizontal_uv
from .rationals import INF, Frac


# -- signs -------------------------------------------------------------------


def edge_sign(right: Frac, left: Frac) -> int | None:
    """The sign of the edge traversed from <right> to <left>: +1 / -1 when
    v increases / decreases, None for the unsigned kinds (vertical edges
    between integers, edges to <inf>)."""
    if left.is_infinite or (left.is_integer and right.is_integer):
        return None
    return 1 if left > right else -1


# -- skeletons -----------------------------------------------------------------


class PathSkeleton:
    """A path shape before endpoints are solved, as a node of its tangle's
    skeleton tree; the root, with no edges, is the constant choice. The
    final edge of any other non-maximal skeleton is "open": an endpoint
    solve decides where on it the path stops.

    Besides its last vertex and its parent, a node holds its edge count
    and the running sum of its edges' signs (unsigned edges count 0).
    """

    __slots__ = ("tangle", "final_left", "parent", "n_edges", "sign_sum")

    def __init__(self, tangle: Frac):
        """The root: the shape of no edges at the tangle vertex."""
        self.tangle = self.final_left = tangle
        self.parent = None
        self.n_edges = self.sign_sum = 0

    @classmethod
    def from_vertices(cls, tangle: Frac, vertices) -> PathSkeleton:
        """The chain of nodes through vertex values (right to left) from the
        tangle vertex. Pairs are not checked to be edges; see
        ``path_from_vertices``."""
        verts = tuple(vertices)
        if verts[:1] != (tangle,):
            raise ValueError("path must start at the tangle vertex")
        node = cls(tangle)
        for v in verts[1:]:
            node = node.child(v)
        return node

    def child(self, vertex: Frac, sign: int | None = None) -> PathSkeleton:
        """This shape extended by one edge to <vertex>, in O(1). The edge's
        sign is computed by ``edge_sign`` unless given (0 for unsigned)."""
        if sign is None:
            sign = edge_sign(self.final_left, vertex) or 0
        node = object.__new__(PathSkeleton)  # __init__ builds roots only
        node.tangle = self.tangle
        node.final_left = vertex
        node.parent = self
        node.n_edges = self.n_edges + 1
        node.sign_sum = self.sign_sum + sign
        return node

    @property
    def vertices(self) -> tuple[Frac, ...]:
        """The vertex values from the tangle vertex on, by walking the
        parent pointers: O(length), for output and validation."""
        out = []
        node = self
        while node is not None:
            out.append(node.final_left)
            node = node.parent
        out.reverse()
        return tuple(out)

    @property
    def final_right(self) -> Frac:
        return self.parent.final_left

    @property
    def is_maximal(self) -> bool:
        return self.final_left.is_infinite

    @property
    def constant(self) -> bool:
        return self.n_edges == 0

    def to_edgepath(self, final_weight: Frac | None = None) -> Edgepath:
        if final_weight is not None and final_weight.num == final_weight.den:
            final_weight = None  # a weight of 1 traverses the whole edge
        return Edgepath(self, final_weight)

    def __eq__(self, other):
        """Equal vertex sequences. The O(1) fields are compared first, then
        the vertices of the two parent chains, now of one length, in step
        down to a node they share or past both roots: no tuple is built."""
        if not isinstance(other, PathSkeleton):
            return NotImplemented
        if self.n_edges != other.n_edges or self.sign_sum != other.sign_sum:
            return False
        a, b = self, other
        while a is not b:
            x, y = a.final_left, b.final_left
            if x.num != y.num or x.den != y.den:  # normalized, so equal values
                return False
            a, b = a.parent, b.parent
        return True

    def __hash__(self):
        return hash((self.tangle, self.n_edges, self.final_left))

    def __repr__(self) -> str:
        return f"PathSkeleton({self})"

    def __str__(self) -> str:
        if self.constant:
            return f"constant on <{self.tangle}>"
        return " - ".join(f"<{v}>" for v in reversed(self.vertices))


# -- edgepaths ---------------------------------------------------------------


class Edgepath:
    """One tangle's edgepath: a skeleton node, whose vertices run right to
    left from the tangle vertex, and ``final_weight``, the weight of the
    stopping point on the left vertex of the node's last edge. A moving
    path that stops part-way stores a weight strictly between 0 and 1, and
    one ending at a vertex stores None (``PathSkeleton.to_edgepath``
    normalizes a solved weight of 1 to a fully traversed final edge). The
    root's last edge is the horizontal edge from <p/q>o to <p/q>, so a
    constant path is the root plus a weight in [0, 1] on <p/q>.

    ``__init__`` validates the pair (ValueError). A path is immutable by
    convention, as ``Frac`` and ``PathSkeleton`` are, and equal paths have
    equal ``(skeleton, final_weight)``. ``render`` keeps the path's string
    in a slot that takes no part in equality, hashing or ``repr``.
    """

    __slots__ = ("skeleton", "final_weight", "_rendered")

    def __init__(self, skeleton: PathSkeleton, final_weight: Frac | None = None):
        sk, t = skeleton, final_weight
        if sk.tangle.is_infinite or sk.tangle.is_integer:
            raise ValueError(f"tangle {sk.tangle} is not a rational tangle")
        if not sk.n_edges:
            if t is None or not 0 <= t <= 1:  # <inf> compares above 1
                raise ValueError(f"constant weight {t} outside [0, 1]")
        elif t is not None:
            if not (0 < t < 1):
                raise ValueError(f"final weight {t} outside (0, 1)")
            if sk.is_maximal:
                raise ValueError("cannot stop part-way toward <inf>")
        self.skeleton, self.final_weight, self._rendered = sk, t, None

    def __eq__(self, other):
        if not isinstance(other, Edgepath):
            return NotImplemented
        return (self.skeleton, self.final_weight) == (other.skeleton, other.final_weight)

    def __hash__(self):
        return hash((self.skeleton, self.final_weight))

    def __repr__(self) -> str:
        return f"Edgepath(skeleton={self.skeleton!r}, final_weight={self.final_weight!r})"

    @property
    def tangle(self) -> Frac:
        return self.skeleton.tangle

    @property
    def vertices(self) -> tuple[Frac, ...]:
        return self.skeleton.vertices

    @property
    def is_constant(self) -> bool:
        return self.skeleton.n_edges == 0

    def endpoint_uv(self) -> tuple[Frac, Frac]:
        if self.is_constant:
            return horizontal_uv(self.tangle, self.final_weight)
        sk = self.skeleton
        return diagram_uv(sk.final_left, sk.final_right, self.final_weight)

    @property
    def u0(self) -> Frac:
        return self.endpoint_uv()[0]

    def signed_length(self) -> tuple[int, int]:
        """The full edges' signs plus the final sign times the final weight,
        read from the node's running sums, as an integer numerator over the
        weight's denominator (over 1 for a path ending at a vertex). The
        twist is -2 times it; constant paths have 0."""
        sk = self.skeleton
        t = self.final_weight
        if t is None or not sk.n_edges:  # a root's sign sum is 0
            return sk.sign_sum, 1
        # the parent's sum covers the full edges
        full = sk.parent.sign_sum
        return full * t.den + (sk.sign_sum - full) * t.num, t.den

    def twist(self) -> Frac:
        """-2 * (the full edges' signs + the final sign * final weight).
        Constant paths have twist 0."""
        num, den = self.signed_length()
        return Frac(-2 * num, den)

    def length(self) -> Frac:
        """Total traversed length (full edges count 1, the partial final
        edge its weight). Constant paths have length 0."""
        edges = self.skeleton.n_edges
        if self.final_weight is None or not edges:
            return Frac(edges)
        return self.final_weight + (edges - 1)

    def last_sign(self) -> int | None:
        if self.is_constant:
            return None
        sk = self.skeleton
        return (sk.sign_sum - sk.parent.sign_sum) or None

    def render(self) -> str:
        """Leftmost point first, then the vertices back to the start, e.g.
        "(1/11)<-1> + (10/11)<-1/2> - <-1/2>". Computed on the first call
        and kept on the path, so sorting, the reference choice and output
        share one rendering."""
        if self._rendered is not None:
            return self._rendered
        if self.is_constant:
            t = self.final_weight
            f = self.tangle
            text = f"({t})<{f}> + ({Frac(1) - t})<{f}>o"
        else:
            verts = self.vertices
            if self.final_weight is not None:
                t = self.final_weight
                head = f"({t})<{verts[-1]}> + ({Frac(1) - t})<{verts[-2]}>"
            else:
                head = f"<{verts[-1]}>"
            text = " - ".join([head] + [f"<{v}>" for v in reversed(verts[:-1])])
        self._rendered = text
        return text


def path_from_vertices(tangle: Frac, vertices, final_weight: Frac | None = None) -> Edgepath:
    """Build a moving path through vertex values from outside the skeleton
    descent (right to left). Every pair is checked with ``diagram_edge``,
    so one that is not a leftward Farey edge raises ValueError. A final
    weight of 1 is normalized to a fully traversed last edge."""
    verts = tuple(vertices)
    for a, b in zip(verts, verts[1:]):
        diagram_edge(a, b)
    return PathSkeleton.from_vertices(tangle, verts).to_edgepath(final_weight)


def constant_path(tangle: Frac, weight_on_vertex: Frac) -> Edgepath:
    return Edgepath(PathSkeleton(tangle), weight_on_vertex)


# -- skeleton enumeration ----------------------------------------------------


def enumerate_skeletons(tangle: Frac) -> list[PathSkeleton]:
    """All leftward path shapes for a tangle.

    Descent through parent pairs: from each fraction vertex the candidate
    moves are its two parents, minus any move that runs along two sides of
    one triangle with the arriving edge; each integer reached continues to
    <inf>. Denominators strictly decrease along the descent, so no move
    retraces a step. Every node is emitted (solver choices truncate
    skeletons anywhere) and the maximal paths end at <inf>. Order: the
    root, the constant choice, first, then the shapes sorted by vertex
    sequence.

    The descent is an iterative pre-order walk with an explicit stack, so
    path length is not bounded by the recursion limit. Children are
    visited in ascending order, and all shapes share the first vertex,
    so pre-order already is the sorted order and nothing is sorted. Each
    child is one node built in O(1); the smaller parent is reached along
    an edge of sign -1, the larger along one of sign +1.
    """
    if tangle.is_infinite or tangle.is_integer:
        raise ValueError(f"tangle {tangle} is not a rational tangle")
    out = []
    stack = [PathSkeleton(tangle)]
    while stack:
        node = stack.pop()
        out.append(node)
        cur = node.final_left
        p, q = cur.num, cur.den
        if q == 0:
            continue
        if q == 1:
            moves = ((1, 0, 0),)  # on to <inf>, unsigned
        else:
            (r, s), (r1, s1) = farey_parent_terms(p, q)
            moves = ((r, s, -1), (r1, s1, 1))
        # a move runs along two sides of one triangle when the vertex before
        # <cur> is joined to it too; the root has no vertex before it, and
        # 0/0 has determinant 0 with every move
        if node.parent is None:
            bn = bd = 0
        else:
            back = node.parent.final_left
            bn, bd = back.num, back.den
        # pushed largest first, so the smallest child is visited next
        for yn, yd, sign in reversed(moves):
            if abs(bn * yd - bd * yn) != 1:
                stack.append(node.child(Frac(yn, yd), sign))
    return out


def single_class_maximal_skeleton(tangle: Frac, parity: int) -> PathSkeleton:
    """The tangle's maximal skeleton whose edges all share one mod-2 class
    and whose penultimate integer has the given parity, found by a walk
    that builds no tree.

    A Farey triangle's vertices reduce mod 2 (num mod 2, den mod 2) to 1/0,
    0/1 and 1/1, so every edge joins two different reductions, and exactly
    one of a vertex's two parents has any given other reduction. Such a
    path ends with an edge into <inf> (1/0), so it alternates between 1/0
    and its penultimate integer's reduction x/1: the tangle's own for an
    odd q (any parity but p mod 2 raises ValueError), either for an even
    q. The walk takes, at each fraction, the parent of the other reduction
    of the pair (sign -1 for the smaller, +1 for the larger, as in the
    descent), then steps to <inf> with sign 0. No two consecutive edges of
    one class bound a triangle, whose third side would join equal
    reductions, so the walk is minimal and a path of the descent tree.
    """
    if tangle.is_infinite or tangle.is_integer:
        raise ValueError(f"tangle {tangle} is not a rational tangle")
    p, q = tangle.num, tangle.den
    if q % 2 and (p - parity) % 2:
        raise ValueError(f"the single-class path of {tangle} ends on an integer of parity {p % 2}")
    node = PathSkeleton(tangle)
    while q != 1:
        (r, s), (r1, s1) = farey_parent_terms(p, q)
        # an odd q moves to its even parent, an even q to its partner x/1
        smaller = s % 2 == 0 if q % 2 else (r - parity) % 2 == 0
        p, q, sign = (r, s, -1) if smaller else (r1, s1, 1)
        node = node.child(Frac(p, q), sign)
    return node.child(INF, 0)
