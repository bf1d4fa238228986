"""The per-tangle Seifert search against the brute-force search it replaced."""

import json
import random
import subprocess
import sys
from math import gcd

import pytest

from montesinos import (
    Frac,
    SeifertReferenceError,
    analyze,
    enumerate_skeletons,
    enumerate_systems_with_diagnostics,
    find_seifert_system,
    is_seifert_candidate,
)
from montesinos.cli import main
from montesinos.edgepaths import single_class_maximal_skeleton

from helpers import child_env, family_spec, knot, seifert_search_oracle, single_class_by_vertices


def search_outcome(search, spec):
    """The reference system a search returns, or its refusal message."""
    try:
        return search(knot(spec))
    except SeifertReferenceError as exc:
        return f"refused: {exc}"


def random_specs(seed: int, count: int) -> list[str]:
    """3-4 tangle knots with denominators at most 12; every fourth knot has
    only odd denominators, the others exactly one even one."""
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        dens = [rng.choice((3, 5, 7, 9, 11)) for _ in range(3 + i % 2)]
        if i % 4:
            dens[rng.randrange(len(dens))] = rng.choice((2, 4, 6, 8, 10, 12))
        fracs = []
        for q in dens:
            p = rng.choice([p for p in range(1 - q, q) if p and gcd(p, q) == 1])
            fracs.append(f"{p}/{q}")
        specs.append(",".join(fracs))
    return specs


ORACLE_SPECS = (
    [family_spec(n) for n in range(11, 42, 2)]
    + ["1/3,1/3,1/3", "3/7,-5/13,8/21,13/34"]
    + random_specs(2013, 60)
)


def wider_specs(seed: int, count: int) -> list[str]:
    """3-5 tangle knots with q <= 13 and |p| < 3q; every fourth knot has
    only odd denominators, the others exactly one even one."""
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        dens = [rng.choice((3, 5, 7, 9, 11, 13)) for _ in range(rng.randint(3, 5))]
        if i % 4:
            dens[rng.randrange(len(dens))] = rng.choice((2, 4, 6, 8, 10, 12))
        fracs = []
        for q in dens:
            p = rng.choice([p for p in range(1 - 3 * q, 3 * q) if gcd(p, q) == 1])
            fracs.append(f"{p}/{q}")
        specs.append(",".join(fracs))
    return specs


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_search_matches_brute_force(spec):
    assert search_outcome(find_seifert_system, spec) == search_outcome(seifert_search_oracle, spec)


def test_search_matches_brute_force_on_wider_knots():
    refused = 0
    for spec in wider_specs(1989, 200):
        outcome = search_outcome(find_seifert_system, spec)
        assert outcome == search_outcome(seifert_search_oracle, spec), spec
        refused += isinstance(outcome, str)
    assert 0 < refused < 200


def test_all_odd_knots_have_a_reference_exactly_when_the_numerators_sum_to_even():
    grid = [f"{a}/3,{b}/5,{c}/7" for a in (-2, -1, 1, 2) for b in (-3, 1, 2) for c in (-1, 3, 4)]
    all_odd = grid + [spec for i, spec in enumerate(wider_specs(1989, 200)) if i % 4 == 0]
    for spec in all_odd:
        odd_sum = sum(f.num for f in knot(spec).tangles) % 2
        outcome = search_outcome(seifert_search_oracle, spec)
        assert isinstance(outcome, str) == bool(odd_sum), spec
        assert search_outcome(find_seifert_system, spec) == outcome, spec


def test_oracle_sample_covers_refusals_and_references():
    outcomes = [search_outcome(seifert_search_oracle, spec) for spec in random_specs(2013, 60)]
    refused = sum(isinstance(o, str) for o in outcomes)
    assert 0 < refused < len(outcomes)


def test_flagged_reports_are_the_systems_the_parity_conditions_accept(capsys):
    """The pipeline flags the report whose system equals the walked
    reference; on every seeded knot with a reference, that is exactly the
    one enumerated system that ``is_seifert_candidate`` accepts, and
    ``seifert --json`` prints its paths. Type II systems are left out on
    both sides: a candidate is type III."""
    checked = 0
    for spec in random_specs(2013, 60) + wider_specs(1989, 200):
        if isinstance(search_outcome(find_seifert_system, spec), str):
            continue
        k = knot(spec)
        flagged = [r.system for r in analyze(k, type_ii=False).reports if r.seifert_flag]
        systems, _ = enumerate_systems_with_diagnostics(k, type_ii=False)
        assert flagged == [s for s in systems if is_seifert_candidate(s)], spec
        assert len(flagged) == 1, spec
        assert main(["seifert", "--json", spec]) == 0
        assert json.loads(capsys.readouterr().out)["paths"] == list(flagged[0].render_paths()), spec
        checked += 1
    assert checked > 200


def test_pretzel_333_is_refused():
    with pytest.raises(SeifertReferenceError, match="no Seifert reference"):
        find_seifert_system(knot("1/3,1/3,1/3"))


def check_walk_against_the_tree(tangle):
    """The tree's maximal paths that pass ``single_class_by_vertices`` end
    on the parity of p for an odd denominator, one path, and on both
    parities for an even one, one path each; the parity walk, asked for
    each of those parities, finds exactly them (vertices, twists and
    lengths)."""
    expected = [
        sk for sk in enumerate_skeletons(tangle) if sk.is_maximal and single_class_by_vertices(sk.vertices)
    ]
    parities = [tangle.num % 2] if tangle.den % 2 else [0, 1]
    assert sorted(sk.vertices[-2].num % 2 for sk in expected) == parities, str(tangle)
    walked = [single_class_maximal_skeleton(tangle, parity) for parity in parities]
    assert [sk.vertices[-2].num % 2 for sk in walked] == parities, str(tangle)

    def shape(sk):
        path = sk.to_edgepath()
        return sk.vertices, path.twist(), path.length()

    walked.sort(key=lambda sk: sk.vertices)
    assert [shape(sk) for sk in walked] == [shape(sk) for sk in expected], str(tangle)


def test_single_class_maximal_skeletons_by_denominator_parity():
    """Every p/q with 2 <= q < 30, |p| < 3q: an odd q has exactly one
    maximal skeleton of a single mod-2 class, an even q exactly two, with
    penultimate vertices of opposite parity, and the parity walk finds
    exactly those the tree's vertices pass."""
    for q in range(2, 30):
        for p in range(1 - 3 * q, 3 * q):
            if gcd(p, q) == 1:
                check_walk_against_the_tree(Frac(p, q))


def test_parity_walk_on_seeded_fractions():
    """500 seeded fractions with denominators up to 1,000."""
    rng = random.Random(1989)
    for _ in range(500):
        q = rng.randrange(2, 1001)
        p = rng.choice([p for p in range(1 - 3 * q, 3 * q) if gcd(p, q) == 1])
        check_walk_against_the_tree(Frac(p, q))


def test_parity_walk_rejects_non_tangles():
    for value in (Frac(3), Frac(1, 0)):
        with pytest.raises(ValueError, match="not a rational tangle"):
            single_class_maximal_skeleton(value, 0)
    # an odd q's single-class path ends on the parity of p, never the other
    for value, parity in ((Frac(1, 3), 0), (Frac(2, 5), 1), (Frac(-3, 7), 0)):
        with pytest.raises(ValueError, match=f"of {value} ends on an integer of parity {1 - parity}"):
            single_class_maximal_skeleton(value, parity)


# Runs the Seifert search under a 1 GB address-space limit, set in the child.
LONG_QUOTIENT_SEARCH = (
    "import resource\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
    "from montesinos import MontesinosKnot, find_seifert_system, is_seifert_candidate, system_twist, validate_system\n"
    "system = find_seifert_system(MontesinosKnot.parse('999999937/1000000007,1/3,1/2'))\n"
    "print(len(system.paths), validate_system(system) is None, is_seifert_candidate(system), system_twist(system))\n"
)


def test_reference_skips_a_long_partial_quotient():
    # 1000000007/70 has the partial quotient 14,285,713: the tangle's tree
    # has a chain that long, and its single-class path steps past it
    proc = subprocess.run(
        [sys.executable, "-c", LONG_QUOTIENT_SEARCH], capture_output=True, text=True, env=child_env(), timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3 True True -14\n"
