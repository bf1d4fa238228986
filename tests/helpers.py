"""Shared test helpers."""

from itertools import product

from montesinos import (
    EdgepathSystem,
    Frac,
    MontesinosKnot,
    SeifertReferenceError,
    enumerate_skeletons,
    is_seifert_candidate,
    system_twist,
)


def fr(text: str) -> Frac:
    return Frac.parse(text)


def skeleton(tangle: str, *vertices: str):
    """Fetch the enumerated skeleton with the given vertex sequence, or the
    constant marker when no vertices are given."""
    t = fr(tangle)
    for sk in enumerate_skeletons(t):
        if not vertices and sk.constant:
            return sk
        if not sk.constant and sk.vertices == tuple(fr(v) for v in vertices):
            return sk
    raise AssertionError(f"no skeleton {vertices} for {tangle}")


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
        [sk for sk in enumerate_skeletons(f) if not sk.constant and sk.is_maximal]
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
