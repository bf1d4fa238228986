"""Brute-force cross-checks for the solver and the skeleton generator.

Nothing here shares logic with the exact solver or the descent-based
enumeration beyond the core fraction type: endpoint weights are found by
scanning integer weight vectors, and paths are found by an unpruned search
over neighbours computed by denominator scan, filtered afterwards by a
from-scratch minimality check. Agreement between the two routes is
evidence, not tautology. These searches may be exponential; they exist for
verification, not speed.

``cross_check`` is the one solver-oracle comparison, which the CLI's
``--cross-check`` and the tests call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm
from typing import Sequence

from .edgepaths import PathSkeleton, enumerate_skeletons
from .rationals import INF, Frac
from .systems import DegenerateSystemError, MontesinosKnot, solve_endpoints, solver_choices


@dataclass(frozen=True)
class WeightVector:
    """Integer endpoint weights: every moving path stops at weight k_i out
    of a common total m on the left vertex of its final edge."""

    m: int
    k: tuple[int, ...]


def brute_force_endpoints(
    choices: Sequence[PathSkeleton], m_max: int
) -> list[WeightVector]:
    """Every feasible integer weight vector with total weight m <= m_max.

    Feasible means: the effective denominators k_i*q_i + (m-k_i)*s_i agree
    across the moving paths, the endpoint v-numerators plus the constant
    contributions sum to zero, and each constant tangle's horizontal edge
    reaches the common vertical line.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    moving = [ch for ch in choices if not ch.constant]
    constants = [ch for ch in choices if ch.constant]
    if not moving:
        raise ValueError("need at least one moving path")
    for ch in moving:
        if ch.n_edges < 1 or ch.final_left.is_infinite:
            raise ValueError(f"{ch} has no open final edge")
        if ch.final_left.den == ch.final_right.den:
            raise ValueError(f"{ch} has a vertical final edge")

    const_sum = Frac(0)
    for ch in constants:
        const_sum = const_sum + ch.tangle

    found = []
    for m in range(1, m_max + 1):
        tables = []
        for ch in moving:
            q, s = ch.final_left.den, ch.final_right.den
            by_denominator: dict[int, list[int]] = {}
            for k in range(1, m + 1):
                by_denominator.setdefault(k * q + (m - k) * s, []).append(k)
            tables.append(by_denominator)
        common = set(tables[0])
        for table in tables[1:]:
            common &= set(table)
        for d in sorted(common):
            if any(d < m * ch.tangle.den for ch in constants):
                continue
            for ks in product(*(table[d] for table in tables)):
                numerators = sum(
                    k * ch.final_left.num + (m - k) * ch.final_right.num
                    for k, ch in zip(ks, moving)
                )
                if Frac(numerators) + Frac(d) * const_sum == 0:
                    found.append(WeightVector(m, ks))
    return found


def normalize_weight_vector(
    vector: WeightVector, choices: Sequence[PathSkeleton]
) -> tuple[tuple[Frac, ...], Frac]:
    """The (t_1..t_M, c) form of an integer weight vector."""
    moving = [ch for ch in choices if not ch.constant]
    ts = tuple(Frac(k, vector.m) for k in vector.k)
    ch0, k0 = moving[0], vector.k[0]
    d = k0 * ch0.final_left.den + (vector.m - k0) * ch0.final_right.den
    return ts, Frac(d, vector.m)


def cross_check(knot: MontesinosKnot, m_max: int) -> tuple[int, int, list]:
    """Diff ``solve_endpoints`` against the weight scan on every combination
    of the knot's solver choices that has a moving path, degenerate ones
    aside. Returns the number of combinations checked, the number of
    solutions the scan reaches and the mismatched combinations. The scan
    reaches t_i = k_i / m only for m a multiple of every denominator, so a
    solution must be found only when their lcm is at most ``m_max``."""
    per_tangle = [solver_choices(enumerate_skeletons(f)) for f in knot.tangles]
    checked = reached = 0
    mismatched = []
    for combo in product(*per_tangle):
        if all(ch.constant for ch in combo):
            continue
        try:
            solution = solve_endpoints(combo)
        except DegenerateSystemError:
            continue
        checked += 1
        found = {normalize_weight_vector(v, combo) for v in brute_force_endpoints(combo, m_max)}
        hit = solution is not None and lcm(*(t.den for t in solution.weights)) <= m_max
        reached += hit
        if found - {solution} or (hit and solution not in found):
            mismatched.append(combo)
    return checked, reached, mismatched


# -- path search -----------------------------------------------------------


def _denominator_scan_neighbours(f: Frac) -> list[Frac]:
    """All neighbours of f with strictly smaller denominator, found by
    scanning denominators and testing the determinant directly."""
    out = []
    p, q = f.num, f.den
    for s in range(1, q):
        for r_num in (p * s - 1, p * s + 1):
            if r_num % q == 0:
                out.append(Frac(r_num // q, s))
    return sorted(set(out))


def _is_minimal(vertices: tuple[Frac, ...]) -> bool:
    for a, x, b in zip(vertices, vertices[1:], vertices[2:]):
        if a == b:
            return False
        det = a.num * b.den - a.den * b.num
        if abs(det) == 1:
            return False
    return True


def exhaustive_paths(tangle: Frac, max_edges: int) -> list[PathSkeleton]:
    """All valid leftward paths with at most max_edges edges, by unpruned
    search plus an after-the-fact minimality filter; includes the root and
    every prefix, in the same order as enumerate_skeletons."""
    if tangle.is_infinite or tangle.is_integer:
        raise ValueError(f"tangle {tangle} is not a rational tangle")
    all_paths: list[tuple[Frac, ...]] = []
    frontier = [(tangle,)]
    for _ in range(max_edges):
        grown = []
        for path in frontier:
            cur = path[-1]
            if cur.is_infinite:
                continue
            moves = [INF] if cur.is_integer else _denominator_scan_neighbours(cur)
            grown.extend(path + (y,) for y in moves)
        all_paths.extend(grown)
        frontier = grown
    valid = sorted(p for p in all_paths if _is_minimal(p))
    out = [PathSkeleton(tangle)]
    out.extend(PathSkeleton.from_vertices(tangle, verts) for verts in valid)
    return out
