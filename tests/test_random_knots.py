"""Seeded random knots: independent validation of every emitted system, and
the pipeline compared with itself across diagrams of the same knot."""

import random
from collections import Counter
from math import gcd

import pytest

from montesinos import (
    Frac,
    MontesinosKnot,
    SeifertReferenceError,
    analyze,
    enumerate_systems,
    find_seifert_system,
    system_twist,
    validate_system,
)
from montesinos.family import family_knot

from helpers import twist_and_length_by_edge


def random_knots(seed: int, count: int) -> list[MontesinosKnot]:
    """3-4 tangle knots with denominators at most 7 and numerators in
    [-2q, 2q]; every third knot has only odd denominators, the others
    exactly one even one."""
    rng = random.Random(seed)
    knots = []
    for i in range(count):
        dens = [rng.choice((3, 5, 7)) for _ in range(3 + i % 2)]
        if i % 3:
            dens[rng.randrange(len(dens))] = rng.choice((2, 4, 6))
        tangles = []
        for q in dens:
            p = rng.choice([p for p in range(-2 * q, 2 * q + 1) if gcd(p, q) == 1])
            tangles.append(Frac(p, q))
        knots.append(MontesinosKnot(tuple(tangles)))
    return knots


KNOTS = random_knots(20261018, 40)


def test_every_emitted_system_and_reference_validates():
    answered = 0
    for k in KNOTS:
        for system in enumerate_systems(k):
            assert validate_system(system) is None, (str(k), system.render_paths())
            # the O(1) twists read from the nodes, against the edge-by-edge sum
            twists = [twist_and_length_by_edge(p)[0] for p in system.paths]
            assert [p.twist() for p in system.paths] == twists, (str(k), system.render_paths())
            assert system_twist(system) == sum(twists, Frac(0)), (str(k), system.render_paths())
        try:
            reference = find_seifert_system(k)
        except SeifertReferenceError:
            continue
        answered += 1
        assert validate_system(reference) is None, str(k)
    assert 0 < answered < len(KNOTS)  # the sample holds answers and refusals


def outcome(tangles, slope_sign=1):
    """The multiset of report fields that do not depend on the diagram,
    slopes multiplied by ``slope_sign``, or "refused"."""
    try:
        reports, _, _ = analyze(MontesinosKnot(tuple(tangles)))
    except SeifertReferenceError:
        return "refused"
    return Counter(
        (
            r.system.system_type,
            slope_sign * r.slope,
            r.sheets,
            r.euler,
            r.boundary_components,
            r.essential,
        )
        for r in reports
    )


def same_knot_diagrams(t):
    """Other diagrams of the knot M(t): a cyclic permutation, the reversal
    and an integer transfer between the first two tangles."""
    return {
        "cyclic": t[1:] + t[:1],
        "reversal": t[::-1],
        "transfer": (t[0] + 1, t[1] - 1) + t[2:],
    }


@pytest.mark.parametrize("k", KNOTS, ids=lambda k: k.spec_string)
def test_outcome_is_a_knot_invariant(k):
    t = k.tangles
    expected = outcome(t)
    for name, diagram in same_knot_diagrams(t).items():
        assert outcome(diagram) == expected, name
    # the mirror image negates every slope and keeps every other field
    assert outcome([-f for f in t], slope_sign=-1) == expected, "mirror"


def _analysis(k, **kwargs):
    try:
        reports, reference_twist, diagnostics = analyze(k, **kwargs)
    except SeifertReferenceError:
        return "refused"
    return [r.to_dict() for r in reports], reference_twist, diagnostics


@pytest.mark.parametrize(
    "k",
    KNOTS + [family_knot(n) for n in range(11, 42, 2)],
    ids=lambda k: k.spec_string,
)
def test_requested_types_are_the_full_analysis_filtered(k):
    expected = _analysis(k)
    if expected != "refused":
        reports, reference_twist, diagnostics = expected
        expected = [r for r in reports if r["type"] != "II"], reference_twist, diagnostics
    assert _analysis(k, type_ii=False) == expected
