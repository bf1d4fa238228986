"""The per-tangle Seifert search against the brute-force search it replaced."""

import random
import re
from math import gcd

import pytest

from montesinos import Frac, SeifertReferenceError, enumerate_skeletons, find_seifert_system
from montesinos import systems as systems_module

from helpers import family_spec, knot, seifert_search_oracle, single_class_by_vertices


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


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_search_matches_brute_force(spec):
    assert search_outcome(find_seifert_system, spec) == search_outcome(seifert_search_oracle, spec)


def test_oracle_sample_covers_refusals_and_references():
    outcomes = [search_outcome(seifert_search_oracle, spec) for spec in random_specs(2013, 60)]
    refused = sum(isinstance(o, str) for o in outcomes)
    assert 0 < refused < len(outcomes)


def test_pretzel_333_is_refused():
    with pytest.raises(SeifertReferenceError, match="no Seifert reference"):
        find_seifert_system(knot("1/3,1/3,1/3"))


def test_disagreeing_twists_are_refused(monkeypatch):
    def every_maximal(skeletons):
        # drop the single-class filter: every maximal path is a candidate
        return [(sk.to_edgepath(), sk.vertices[-2].num % 2 != 0) for sk in skeletons if sk.is_maximal]

    monkeypatch.setattr(systems_module, "_reference_paths", every_maximal)
    message = "ambiguous reference for M(-1/2, 2/5, 1/11): twists ['-14', '-18', '-26', '0', '4']"
    with pytest.raises(SeifertReferenceError, match=re.escape(message)):
        find_seifert_system(knot(family_spec(11)))


def test_single_class_maximal_skeletons_by_denominator_parity():
    """Every p/q with 2 <= q < 30, |p| < 3q: an odd q has exactly one
    maximal skeleton of a single mod-2 class, an even q exactly two, with
    penultimate vertices of opposite parity. Read from the vertices and
    from the nodes' stored classes alike."""
    for q in range(2, 30):
        for p in range(1 - 3 * q, 3 * q):
            if gcd(p, q) != 1:
                continue
            maximal = [sk for sk in enumerate_skeletons(Frac(p, q)) if sk.is_maximal]
            by_vertices = [
                sk.vertices[-2].num % 2 for sk in maximal if single_class_by_vertices(sk.vertices)
            ]
            by_node = [sk.final_right.num % 2 for sk in maximal if sk.single_class]
            assert by_node == by_vertices, f"{p}/{q}"
            if q % 2:
                assert len(by_node) == 1, f"{p}/{q}"
            else:
                assert sorted(by_node) == [0, 1], f"{p}/{q}"
