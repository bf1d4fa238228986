"""Edgepath systems: the common-endpoint solve, enumeration and validation.

A system assigns one edgepath per tangle. Beyond the per-path conditions
(E1, E2, E4) the ending points must lie on one vertical line with their
v-coordinates summing to zero (E3). Take one skeleton per tangle with an
open final edge, or its root, the constant choice, and write the
endpoint of moving path i as weight t_i on the left vertex p_i/q_i of
its final edge and 1 - t_i on the right vertex r_i/s_i. Farey edges are
straight lines in the uv-plane, so the common vertical line u = 1 - 1/c
fixes every weight by the shared effective denominator c:

    t_i = (c - s_i) / (q_i - s_i)

and the zero sum over moving paths i and constant paths j becomes one
equation in one unknown,

    A * c = B,   A = sum_i a_i + sum_j R_j,   B = sum_i (s_i * a_i - r_i),

with a_i = (p_i - r_i) / (q_i - s_i). A == 0 == B is a continuous family
of endpoints, flagged as degenerate and never guessed at; A == 0 != B has
no solution. Otherwise c = B / A is accepted when every t_i lies in (0, 1]
and every constant tangle satisfies c >= q_j (its point must stay on the
horizontal edge).

A combination of roots only is solved by the same rule: A is the sum of
the fractions and B = 0, so it is degenerate exactly when the fractions
sum to 0, and otherwise c = 0 lies below every root's range. A zero sum
forces every q_i odd, since the one even q_i allowed would make p_i/q_i
minus a sum of fractions with odd denominators, and then an even sum of
the p_i, since p_i/q_i is congruent to p_i mod 2 when q_i is odd. Such
a spec's diagram is a two-component link, so the degenerate note of a
roots-only combination appears on links alone.

A final edge runs to a smaller denominator, q_i < s_i, as the descent
guarantees and E4 demands; the solve refuses any other. Then
t_i = (s_i - c) / (s_i - q_i) is in (0, 1] exactly when q_i <= c < s_i,
so each choice is a c-interval: [q_i, s_i) for a moving path and
[q_j, inf) for a constant one. The enumeration walks the tangles depth
first and drops a branch once the running intersection is empty, so
combinations that cannot meet are never built or solved.

A tangle's tree holds long twist regions, such as the chain 1/n, 1/(n-1),
..., 1/1 of a 1/n tangle, where a path fans around one pivot: each vertex
is the one before it less one step (y, w), w > 0. A run of consecutive
solver choices, each the child of the one before, then has final edges
from v + (y, w) down to v, from v down to v - (y, w), and so on. Every
one of them adds a_i = y / w to A and b_i = -(w * p_i - y * q_i) / w to
B, and w * p_i - y * q_i does not change under the step. With the other
tangles' choices fixed, c = B / A is one value for the whole run, and the
run's c-ranges [q_i, q_i + w) tile one interval, so only the one choice
whose range holds c can be accepted. The enumeration sums A and B once
per meeting combination of runs and solves only when every run has that
choice: the number of solves follows the number of runs, not the length
of a chain.

The solve runs in integers. With d_i = q_i - s_i, each b_i = s_i * a_i - r_i
equals (s_i * p_i - r_i * q_i) / d_i, which is +-1/d_i because the Farey
determinant of an edge is +-1. Over D = prod d_i * prod q_j, An = A * D and
Bn = B * D are integers; negated together so that An > 0, they give
c = Bn / An, and t_i = (Bn - s_i * An) / (d_i * An). The intervals have
integer ends, so each range condition compares only Bn // An, and a
rejected solve builds no ``Frac``.

Systems come in three kinds by the common final u-coordinate: type I
(u > 0, solved endpoints in the open region), type II (u = 0, endpoints
on the v-axis, possibly after motion along vertical edges, which changes
no twist), and type III (every path runs to <inf>, where E3 holds
trivially). The enumeration always builds types I and III, and type II
when ``type_ii`` is set.

Slopes are twists measured against a Seifert surface, which has slope
zero. Following Hatcher and Oertel's Seifert-surface criterion (Topology
28, 1989), in Dunfield's description of it (Topology 40, 2001), the
reference is a type III system meeting two conditions on the vertex
labels reduced mod 2, (num mod 2, den mod 2): every edge of each path
joins the same two reductions, and an even number of paths have an odd
penultimate integer, the vertex before <inf>. The first condition is on
each path alone and has a closed form: a Farey triangle's vertices reduce
to 1/0, 0/1 and 1/1, so a single-class maximal path alternates between
1/0, the reduction of <inf>, and one partner reduction, and is a walk
taking at each vertex the one parent of the other reduction
(``edgepaths.single_class_maximal_skeleton``). An odd q_i has one such
path, ending on the parity of p_i; an even q_i has one per parity. A
knot has at most one even q_i, so the second condition fixes the rest:
the even tangle's path ends on the parity of the odd p_i's sum, and if
every q_i is odd that sum must be even. The pipeline runs this walk
alone; ``is_seifert_candidate`` derives both conditions again from the
vertex values, a second derivation that the pipeline never calls.
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple, Sequence

from .edgepaths import Edgepath, PathSkeleton, enumerate_skeletons, single_class_maximal_skeleton
from .farey import diagram_edge, is_farey_edge
from .rationals import Frac

DEFAULT_COMBINATION_CAP = 10**7


class DegenerateSystemError(Exception):
    """The endpoint system is consistent but rank-deficient: a continuous
    family of endpoints rather than isolated ones."""


class CapExceededError(Exception):
    """The skeleton-combination count exceeds the configured cap."""


class SeifertReferenceError(Exception):
    """The knot has no Seifert reference system."""


# -- knots -----------------------------------------------------------------


class MontesinosKnot(NamedTuple("MontesinosKnot", [("tangles", tuple[Frac, ...])])):
    """An ordered list of rational tangle fractions p_i/q_i, q_i >= 2, as a
    one-field named tuple validated (ValueError) in ``__new__`` and ``_make``.

    At most one denominator may be even; otherwise the diagram closes up
    to a link with several components, which this package does not handle.
    """

    __slots__ = ()

    def __new__(cls, tangles: tuple[Frac, ...]):
        if len(tangles) < 3:
            raise ValueError("need at least 3 tangles")
        for f in tangles:
            if f.is_infinite or f.is_integer:
                raise ValueError(f"tangle {f} must have denominator >= 2")
        even = [f for f in tangles if f.den % 2 == 0]
        if len(even) > 1:
            raise ValueError("more than one even denominator: this is a multi-component link")
        return super().__new__(cls, tangles)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def parse(cls, spec: str) -> "MontesinosKnot":
        return cls(tuple(Frac.parse(p) for p in spec.split(",")))

    @property
    def spec_string(self) -> str:
        return ",".join(str(f) for f in self.tangles)

    def __str__(self) -> str:
        return f"M({', '.join(str(f) for f in self.tangles)})"


# -- endpoint solving --------------------------------------------------------


class EndpointSolution(NamedTuple):
    """Solved weights t_i (one per moving path, in choice order) and the
    common effective denominator c, with final u-coordinate 1 - 1/c. A
    solution equals the plain ``(weights, c)`` pair."""

    weights: tuple[Frac, ...]
    c: Frac

    @property
    def u0(self) -> Frac:
        return Frac(1) - Frac(1) / self.c


def _endpoint_sums(choices: Sequence[PathSkeleton]) -> tuple[int, int, list[tuple[int, int]]]:
    """The integers An = A * D and Bn = B * D of the module docstring,
    negated together so that An >= 0, and each moving path's (s_i, d_i) in
    choice order. A final edge must run to a smaller denominator, q_i < s_i
    (ValueError otherwise)."""
    # An / D and Bn / D, one term at a time: x/D + y/d = (x*d + y*D) / (D*d)
    an = bn = 0
    dd = 1
    ends = []
    for ch in choices:
        # read n_edges, not the ``constant`` property: this runs per combination
        if ch.n_edges:
            left, right = ch.final_left, ch.final_right
            if left.is_infinite:
                raise ValueError(f"{ch} ends at <inf>: nothing to solve")
            p, q, r, s = left.num, left.den, right.num, right.den
            if q >= s:
                raise ValueError(f"{ch} has a final edge that does not run to a smaller denominator")
            d = q - s
            an = an * d + (p - r) * dd
            bn = bn * d + (s * p - r * q) * dd
            dd *= d
            ends.append((s, d))
        else:
            tangle = ch.tangle
            if tangle.is_infinite:
                raise ValueError(f"{ch}: arithmetic with the infinite value")
            an = an * tangle.den + tangle.num * dd
            bn *= tangle.den
            dd *= tangle.den
    if an < 0:
        an, bn = -an, -bn
    return an, bn, ends


def solve_endpoints(choices: Sequence[PathSkeleton]) -> EndpointSolution | None:
    """Solve E3 exactly for one skeleton choice per tangle, as A * c = B
    in integers, by the closed form of the module docstring.

    Moving path i, whose final edge runs from r_i/s_i down to p_i/q_i with
    q_i < s_i (or ValueError), adds a_i = (p_i - r_i) / d_i to A and
    b_i = (s_i * p_i - r_i * q_i) / d_i to B, with d_i = q_i - s_i. A root,
    the constant choice, adds its fraction R_j to A and nothing to B (the
    module docstring's roots-only case). Each choice's ``_c_range`` has
    integer ends, so only Bn // An is compared, and ``Frac``s are built
    only when accepted.

    Returns the unique solution when it exists and meets every range
    constraint, None when the equation is inconsistent or the solution
    falls outside the constraints. Raises DegenerateSystemError when every
    c solves it (A == 0 == B).
    """
    an, bn, ends = _endpoint_sums(choices)
    if an == 0:
        if bn != 0:
            return None
        raise DegenerateSystemError(
            "degenerate: endpoints form a continuous family for "
            + "; ".join(str(ch) for ch in choices)
        )
    whole = bn // an  # lo <= c < hi exactly when lo <= whole < hi, for integer ends
    for ch in choices:
        lo, hi = _c_range(ch)
        if not lo <= whole < hi:
            return None
    weights = tuple(Frac(bn - s * an, d * an) for s, d in ends)
    return EndpointSolution(weights, Frac(bn, an))


# -- systems -----------------------------------------------------------------


class EdgepathSystem(NamedTuple):
    knot: MontesinosKnot
    paths: tuple[Edgepath, ...]
    common_u: Frac

    @property
    def system_type(self) -> str:
        # the sign of u lives on its numerator (a Frac's den is positive)
        num = self.common_u.num
        return "I" if num > 0 else "II" if num == 0 else "III"

    def render_paths(self) -> tuple[str, ...]:
        return tuple(p.render() for p in self.paths)

    def to_dict(self) -> dict:
        return {
            "knot": self.knot.spec_string,
            "type": self.system_type,
            "common_u": str(self.common_u),
            "paths": list(self.render_paths()),
        }

    def _sort_key(self):
        # "I" < "II" < "III" as strings, so the type name is its own rank
        return (self.system_type, self.render_paths())


def system_twist(system: EdgepathSystem) -> Frac:
    """The system's twist: -2 times the sum of its paths' signed lengths,
    added in integers over one common denominator into one ``Frac``."""
    num, den = 0, 1
    for path in system.paths:
        n, d = path.signed_length()
        num, den = num * d + n * den, den * d  # x/den + n/d, and d is 1 at a vertex
    return Frac(-2 * num, den)


def _build_solved_system(
    knot: MontesinosKnot, combo: Sequence[PathSkeleton], solution: EndpointSolution
) -> EdgepathSystem:
    paths = []
    it = iter(solution.weights)
    c = solution.c
    for ch in combo:
        if ch.constant:
            # the weight q_j / c on the vertex puts the point at u = 1 - 1/c
            paths.append(Edgepath(ch, Frac(ch.tangle.den * c.den, c.num)))
        else:
            paths.append(ch.to_edgepath(next(it)))
    return EdgepathSystem(knot, tuple(paths), solution.u0)


def _may_move(choice: PathSkeleton, direction: int) -> bool:
    """Whether a path ending at the integer z may step ``direction`` (+-1)
    along vertical edges: not when z + direction is joined to its arrival
    vertex g, so both steps lie on one triangle. With e = g.num - z * g.den
    = +-1, |e - direction * g.den| = 1 only when g = z + direction / 2."""
    g = choice.final_right
    return not (g.den == 2 and g.num == 2 * choice.final_left.num + direction)


def _extended_path(choice: PathSkeleton, displacement: int) -> Edgepath:
    """The arrival path moved ``displacement`` steps along vertical edges,
    as child nodes of sign 0."""
    z = choice.final_left.num
    step = 1 if displacement > 0 else -1
    node = choice
    for i in range(1, abs(displacement) + 1):
        node = node.child(Frac(z + step * i), 0)
    return node.to_edgepath()


def solver_choices(skeletons: Sequence[PathSkeleton]) -> list[PathSkeleton]:
    """The skeletons an endpoint solve accepts: every node short of <inf>,
    the root being the constant choice."""
    return [sk for sk in skeletons if not sk.final_left.is_infinite]


class _TwistRegion(NamedTuple):
    """A twist region: a run of one tangle's solver choices,
    ``nodes[start:stop]``, each the child of the one before with its final
    edge one pivot step (y, w) below the one before's. The choices add the
    same terms to A and B, and their c-ranges [q, q + w) tile the region's
    range from the top down (module docstring). A choice that starts no
    run is a region of one."""

    nodes: Sequence[PathSkeleton]
    start: int
    stop: int

    def index_for(self, whole: int) -> int | None:
        """The index of the choice whose c-range holds ``whole``, or None
        when none does, in O(1)."""
        first = self.nodes[self.start]
        if self.stop - self.start == 1:
            lo, hi = _c_range(first)
            return self.start if lo <= whole < hi else None
        q = first.final_left.den
        # choice k of the run has the range [q - k * w, q - k * w + w)
        k = (q - whole - 1) // (first.final_right.den - q) + 1
        return self.start + k if 0 <= k < self.stop - self.start else None

    def index_of(self, choice: PathSkeleton) -> int:
        """The index of one of the run's choices: its edges past the first's."""
        return self.start + choice.n_edges - self.nodes[self.start].n_edges


def _twist_regions(choices: Sequence[PathSkeleton]) -> list[_TwistRegion]:
    """A tangle's solver choices cut into maximal runs, in one pass."""
    regions = []
    start = 0
    for i in range(1, len(choices)):
        prev, node = choices[i - 1], choices[i]
        if node.parent is prev and prev.n_edges:
            right, mid, left = prev.final_right, prev.final_left, node.final_left
            if right.num - mid.num == mid.num - left.num and right.den - mid.den == mid.den - left.den:
                continue
        regions.append(_TwistRegion(choices, start, i))
        start = i
    regions.append(_TwistRegion(choices, start, len(choices)))
    return regions


def _c_range(choice: PathSkeleton | _TwistRegion) -> tuple[int, int | float]:
    """The half-open interval [lo, hi) of effective denominators c that
    keep the choice in range: [q, s) for a moving path, whose final edge
    runs from r/s down to p/q, and [q_j, inf) for a constant path. A twist
    region's is the union of its choices' ranges. The ends are only
    compared, never multiplied, so ``math.inf`` stays exact."""
    if isinstance(choice, _TwistRegion):
        return _c_range(choice.nodes[choice.stop - 1])[0], _c_range(choice.nodes[choice.start])[1]
    if choice.constant:
        return choice.tangle.den, math.inf
    return choice.final_left.den, choice.final_right.den


def _meeting_combinations(per_tangle: Sequence[Sequence[PathSkeleton | _TwistRegion]]):
    """The combinations of ``product(*per_tangle)`` whose c-ranges share a
    point, in product order. A branch is dropped as soon as the running
    intersection of its ranges is empty, so the rest are never built."""
    ranged = [[(ch, *_c_range(ch)) for ch in options] for options in per_tangle]

    def walk(depth, lo, hi, prefix):
        if depth == len(ranged):
            yield prefix
            return
        for ch, ch_lo, ch_hi in ranged[depth]:
            meet_lo, meet_hi = max(lo, ch_lo), min(hi, ch_hi)
            if meet_lo < meet_hi:
                yield from walk(depth + 1, meet_lo, meet_hi, prefix + (ch,))

    return walk(0, 0, math.inf, ())


def _solved_systems(
    knot: MontesinosKnot, solvable: Sequence[Sequence[PathSkeleton]], type_ii: bool
) -> tuple[list[EdgepathSystem], list[str]]:
    """The systems the endpoint solve accepts, those with c == 1 (type II)
    only when ``type_ii`` is set, and the degeneracy notes, both in the
    product order of ``solvable``, the tangles' solver choices.

    The walk runs over twist regions: one sum of A and B per combination of
    regions whose ranges meet, then, when every region has a choice whose
    range holds c, one ``solve_endpoints`` call, which accepts them. When
    A == 0 != B no choice solves, and when A == 0 == B every combination of
    the regions' choices is degenerate, and each whose ranges meet gets its
    note. Systems and notes are found region by region and put in product
    order by their choice indices, as a walk over single choices would.
    """
    solved: list[tuple[tuple[int, ...], EdgepathSystem]] = []
    notes: list[tuple[tuple[int, ...], str]] = []
    for regions in _meeting_combinations([_twist_regions(choices) for choices in solvable]):
        # every choice of a region adds the same terms, so its first stands in
        an, bn, _ = _endpoint_sums([r.nodes[r.start] for r in regions])
        if an == 0:
            if bn == 0:
                choice_lists = [r.nodes[r.start : r.stop] for r in regions]
                for combo in _meeting_combinations(choice_lists):
                    try:
                        solve_endpoints(combo)
                    except DegenerateSystemError as exc:
                        notes.append((tuple(map(_TwistRegion.index_of, regions, combo)), str(exc)))
            continue
        whole = bn // an
        indices = tuple(r.index_for(whole) for r in regions)
        if None in indices:
            continue
        combo = [r.nodes[i] for r, i in zip(regions, indices)]
        solution = solve_endpoints(combo)
        # an accepted c is at least 1, and u = 1 - 1/c is 0 exactly at c = 1
        if type_ii or solution.c != 1:
            solved.append((indices, _build_solved_system(knot, combo, solution)))
    solved.sort(key=lambda entry: entry[0])
    notes.sort(key=lambda entry: entry[0])
    return [system for _, system in solved], [note for _, note in notes]


def enumerate_systems_with_diagnostics(
    knot: MontesinosKnot, cap: int = DEFAULT_COMBINATION_CAP, type_ii: bool = True
) -> tuple[list[EdgepathSystem], list[str]]:
    """The knot's candidate systems, type II ones only when ``type_ii`` is
    set, plus degeneracy notes.

    Type I and II systems with isolated endpoints come from the exact
    solve over the combinations of open-final-edge truncations and roots
    (constant choices) whose c-ranges meet; the others have no endpoint in
    range and are skipped unsolved, degenerate ones included; one solve
    serves each twist region (``_solved_systems``). Type II systems needing
    vertical motion are built from combinations of paths stopped at their
    v-axis arrival vertices: the integer displacement that zeroes the
    v-sum is absorbed by the first path whose allowed vertical direction
    permits it (any other split along vertical edges yields the same
    twist, hence the same slope). Type III systems are all combinations of
    maximal skeletons. Each arrival and maximal path is built once and
    shared by every combination it appears in.

    Systems come in walk order, unsorted: the solved ones, then those with
    vertical motion, then type III, each in the product order of its
    choices, and the notes in the product order of the solver choices.
    ``enumerate_systems`` sorts the systems; ``surfaces.build_reports``
    sorts the reports instead.

    ``type_ii`` moves no count: the cap counts all three products and the
    same solves run either way.
    """
    per_tangle = [enumerate_skeletons(f) for f in knot.tangles]
    solvable = [solver_choices(sks) for sks in per_tangle]
    maximal = [[sk for sk in sks if sk.is_maximal] for sks in per_tangle]
    arrivals = [[sk for sk in sks if sk.final_left.is_integer] for sks in per_tangle]

    total = sum(math.prod(map(len, group)) for group in (solvable, maximal, arrivals))
    if total > cap:
        raise CapExceededError(f"{total} skeleton combinations exceed the cap of {cap}")

    systems, diagnostics = _solved_systems(knot, solvable, type_ii)

    if type_ii:
        built_arrivals = [[(ch, ch.to_edgepath()) for ch in options] for options in arrivals]
        for combo in product(*built_arrivals):
            shift = -sum(ch.final_left.num for ch, _ in combo)
            if shift == 0:
                continue  # already found by the solver with every weight at 1
            direction = 1 if shift > 0 else -1
            absorber = next(
                (i for i, (ch, _) in enumerate(combo) if _may_move(ch, direction)),
                None,
            )
            if absorber is None:
                continue
            paths = [path for _, path in combo]
            paths[absorber] = _extended_path(combo[absorber][0], shift)
            systems.append(EdgepathSystem(knot, tuple(paths), Frac(0)))

    built_maximal = [[ch.to_edgepath() for ch in options] for options in maximal]
    for paths in product(*built_maximal):
        systems.append(EdgepathSystem(knot, paths, Frac(-1)))

    return systems, diagnostics


def enumerate_systems(
    knot: MontesinosKnot, cap: int = DEFAULT_COMBINATION_CAP
) -> list[EdgepathSystem]:
    """The knot's candidate systems of every type, sorted by type and then
    by their rendered paths."""
    systems = enumerate_systems_with_diagnostics(knot, cap)[0]
    systems.sort(key=lambda s: s._sort_key())
    return systems


# -- independent validation ----------------------------------------------------


class Violation(NamedTuple):
    condition: str
    path_index: int
    detail: str

    def __str__(self) -> str:
        return f"({self.condition}) path {self.path_index}: {self.detail}"


def validate_system(system: EdgepathSystem) -> Violation | None:
    """Check E1 through E4 from the stored paths alone, independently of
    how the system was produced: it calls no solver and reads no stored
    sign sum. Returns the first violation, or None. Every check is an
    integer test on vertex values or a ``farey`` coordinate formula.

    Each vertex pair is checked first with ``diagram_edge``; a pair that
    is not a leftward Farey edge is an E2 violation. That test is where E4
    is checked: u = 1 - 1/q grows with q, so u never increases along a
    path whose denominators never rise, and the stopping point of a
    partial final edge, whose effective denominator lies between its two
    ends', has a u between theirs."""
    vertex_lists = [path.vertices for path in system.paths]
    for i, verts in enumerate(vertex_lists):
        try:
            for a, b in zip(verts, verts[1:]):
                diagram_edge(a, b)
        except ValueError as exc:
            return Violation("E2", i, str(exc))
    # E1: start on the tangle's horizontal edge; moving paths start at <R_i>
    for i, path in enumerate(system.paths):
        if path.tangle != system.knot.tangles[i]:
            return Violation("E1", i, f"path serves {path.tangle}, tangle is {system.knot.tangles[i]}")
        if path.is_constant:
            if not 0 <= path.final_weight <= 1:
                return Violation("E1", i, "constant weight outside [0, 1]")
        elif vertex_lists[i][0] != path.tangle:
            return Violation("E1", i, "moving path does not start at the tangle vertex")
    # E2: minimality over each vertex triple <a> - <x> - <b>: no retrace
    # (a == b), and no run along two sides of one triangle (a, b joined)
    for i, verts in enumerate(vertex_lists):
        for a, x, b in zip(verts, verts[1:], verts[2:]):
            if a == b:
                return Violation("E2", i, f"step <{b}> - <{x}> retraces <{x}> - <{a}>")
            if is_farey_edge(a, b):
                return Violation("E2", i, f"steps <{x}> - <{a}> and <{b}> - <{x}> lie on one triangle")
    # E3: common vertical line, v-coordinates summing to zero
    coords = [p.endpoint_uv() for p in system.paths]
    us = {u for u, _ in coords}
    if len(us) != 1:
        return Violation("E3", 0, f"endpoints on several vertical lines: {sorted(map(str, us))}")
    (u0,) = us
    if u0 != system.common_u:
        return Violation("E3", 0, f"stored u {system.common_u} is not the endpoint u {u0}")
    v_sum = Frac(0)
    for _, v in coords:
        v_sum = v_sum + v
    if v_sum != 0:
        return Violation("E3", 0, f"v-coordinates sum to {v_sum}")
    return None


# -- Seifert reference ---------------------------------------------------------


def _single_parity_class(verts: Sequence[Frac]) -> bool:
    """Whether every edge along the vertex sequence joins the same two
    mod-2 reductions (num mod 2, den mod 2) of its ends."""
    reductions = [(v.num % 2, v.den % 2) for v in verts]
    return len({frozenset(pair) for pair in zip(reductions, reductions[1:])}) == 1


def penultimate_vertex(path: Edgepath) -> Frac:
    """The v-axis vertex just before <inf> on a maximal path."""
    if not path.skeleton.is_maximal:
        raise ValueError("path does not reach <inf>")
    return path.skeleton.final_right


def is_seifert_candidate(system: EdgepathSystem) -> bool:
    """The two parity conditions for representing a Seifert surface:
    every path uses edges of a single mod-2 class, and the number of paths
    whose penultimate vertex is an odd integer is even. The search walks
    the parities; this derives both conditions from the vertex values, so
    it stays a check on the search."""
    if system.system_type != "III":
        return False
    if not all(_single_parity_class(p.vertices) for p in system.paths):
        return False
    odd = sum(1 for p in system.paths if penultimate_vertex(p).num % 2 != 0)
    return odd % 2 == 0


def find_seifert_system(knot: MontesinosKnot) -> EdgepathSystem:
    """The slope-zero reference system, the one type III system passing
    both parity conditions, found by walking each tangle once; an all-odd
    knot whose p_i sum to an odd number has none (SeifertReferenceError)."""
    parity = sum(f.num for f in knot.tangles if f.den % 2) % 2
    if parity and all(f.den % 2 for f in knot.tangles):
        raise SeifertReferenceError(f"no Seifert reference for {knot}")
    paths = tuple(
        single_class_maximal_skeleton(f, f.num if f.den % 2 else parity).to_edgepath()
        for f in knot.tangles
    )
    return EdgepathSystem(knot, paths, Frac(-1))
