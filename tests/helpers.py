"""Shared test helpers."""

import os
from itertools import product
from pathlib import Path

import montesinos
from montesinos import (
    DegenerateSystemError,
    EdgepathSystem,
    Frac,
    MontesinosKnot,
    SeifertReferenceError,
    enumerate_skeletons,
    is_farey_edge,
    is_seifert_candidate,
    system_twist,
)


def fr(text: str) -> Frac:
    return Frac.parse(text)


def skeleton(tangle: str, *vertices: str):
    """Fetch the enumerated skeleton with the given vertex sequence, or the
    root, the constant choice, when no vertices are given."""
    t = fr(tangle)
    for sk in enumerate_skeletons(t):
        if not vertices and sk.constant:
            return sk
        if not sk.constant and sk.vertices == tuple(fr(v) for v in vertices):
            return sk
    raise AssertionError(f"no skeleton {vertices} for {tangle}")


def child_env() -> dict:
    """The environment for a child Python process that imports this
    checkout's package, whether or not it is installed."""
    src = str(Path(montesinos.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def knot(spec: str) -> MontesinosKnot:
    return MontesinosKnot.parse(spec)


def family_spec(n: int) -> str:
    return f"-1/2,2/5,1/{n}"


def seifert_search_oracle(k: MontesinosKnot) -> EdgepathSystem:
    """The Seifert search by brute force: every combination of maximal
    skeletons built into a system and checked by ``is_seifert_candidate``,
    the passing systems sorted by ``_sort_key``, with the same refusals as
    ``find_seifert_system``."""
    maximal = [
        [sk for sk in enumerate_skeletons(f) if sk.is_maximal]
        for f in k.tangles
    ]
    candidates = []
    for combo in product(*maximal):
        system = EdgepathSystem(k, tuple(sk.to_edgepath(None) for sk in combo), Frac(-1))
        if is_seifert_candidate(system):
            candidates.append(system)
    if not candidates:
        raise SeifertReferenceError(f"no Seifert reference for {k}")
    candidates.sort(key=lambda s: s._sort_key())
    twists = {system_twist(s) for s in candidates}
    if len(twists) > 1:
        raise SeifertReferenceError(
            f"ambiguous reference for {k}: twists {sorted(map(str, twists))}"
        )
    return candidates[0]


def sign_by_definition(right, left):
    """The sign of the edge <right>-<left> by the definition: +1 when the
    left vertex is the larger, -1 when the smaller, None for edges to
    <inf> and edges between two integers."""
    if left.is_infinite or (left.is_integer and right.is_integer):
        return None
    return 1 if left > right else -1


def twist_and_length_by_edge(path):
    """Twist and length summed edge by edge from the vertex values, by the
    definition: a full edge adds -2 * sign and length 1, a partial final
    edge traversed t adds -2 * sign * t and length t, and unsigned edges
    add no twist."""
    verts = path.vertices
    twist = length = Frac(0)
    for i, (right, left) in enumerate(zip(verts, verts[1:])):
        last = i == len(verts) - 2
        t = path.final_weight if last and path.final_weight is not None else Frac(1)
        twist = twist - 2 * (sign_by_definition(right, left) or 0) * t
        length = length + t
    return twist, length


def single_class_by_vertices(vertices) -> bool:
    """Whether the path has edges and all of them join the same two mod-2
    reductions (num mod 2, den mod 2) of their ends."""
    classes = {
        frozenset(((a.num % 2, a.den % 2), (b.num % 2, b.den % 2)))
        for a, b in zip(vertices, vertices[1:])
    }
    return len(classes) == 1


def may_move_by_triangle(choice, direction: int) -> bool:
    """Whether a path ending at the integer z may step ``direction`` along
    vertical edges, by the two-sides-of-a-triangle rule: not when its
    arrival vertex and z + direction are joined by a Farey edge."""
    return not is_farey_edge(choice.final_right, choice.final_left + direction)


def solve_endpoints_by_fracs(choices):
    """E3 solved as A * c = B in normalized ``Frac``s, the closed form the
    integer kernel replaced: a_i = (p_i - r_i) / (q_i - s_i) and
    b_i = s_i * a_i - r_i per moving path, R_j added to A per constant
    one, c = B / A and t_i = (c - s_i) / (q_i - s_i). Returns
    (weights, c) or None and raises DegenerateSystemError as the solver
    does; a final edge with q_i == s_i raises ValueError from ``Frac``."""
    moving = [ch for ch in choices if not ch.constant]
    constants = [ch for ch in choices if ch.constant]
    A = B = Frac(0)
    for ch in moving:
        left, right = ch.final_left, ch.final_right
        a = Frac(left.num - right.num, left.den - right.den)
        A = A + a
        B = B + right.den * a - right.num
    for ch in constants:
        A = A + ch.tangle
    if A == 0:
        if B != 0:
            return None
        raise DegenerateSystemError(
            "degenerate: endpoints form a continuous family for "
            + "; ".join(str(ch) for ch in choices)
        )
    c = B / A
    weights = []
    for ch in moving:
        q, s = ch.final_left.den, ch.final_right.den
        t = (c - s) / (q - s)
        if t <= 0 or t > 1:
            return None
        weights.append(t)
    for ch in constants:
        if c < ch.tangle.den:
            return None
    return tuple(weights), c
