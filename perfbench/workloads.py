"""The benchmark's workloads: which ops each one runs, made from a seed.

An op is one knot: one ``montesinos-slopes`` command line run in-process
through ``montesinos.cli.main``, or one call of the library's
``enumerate_systems``. Every op the benchmark can generate, for any seed,
has a stdout digest in ``reference.json``, so random knots are drawn from
a fixed pool that the reference covers, and a seed picks which of them a
run uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class Op:
    """One knot: a CLI argument list, or a library ``enumerate_systems``
    call on ``argv[0]`` when ``library`` is set."""

    argv: tuple[str, ...]
    library: bool = False

    @property
    def key(self) -> str:
        prefix = "library enumerate_systems " if self.library else ""
        return prefix + " ".join(self.argv)


def cli_op(*argv: str) -> Op:
    return Op(tuple(argv))


FAMILY_SWEEP_N = range(11, 202, 2)
# Odd n stop below the depth where the recursive skeleton descent of 1/n
# overflows the default recursion limit; the 1/1001 probe reports that failure.
SEIFERT_SCAN_N = range(11, 902, 2)

# Wide products where only 0.4-2.8 % of skeleton combinations are accepted.
# The 5-tangle knot goes through the library because the CLI refuses it for
# lack of a Seifert reference.
ANCHORS = (
    cli_op("enumerate", "3/7,-5/13,8/21,13/34"),
    cli_op("enumerate", "--all-types", "--json", "55/89,-34/55,21/34"),
    Op(("1/3,2/7,-3/11,5/13,8/21",), library=True),
)

# The random knots of knot-mix run these commands, each equally often among
# the candidate ops.
MIX_COMMANDS = (
    ("enumerate", "--json"),
    ("enumerate", "--csv", "--dedupe"),
    ("pair-gap",),
    ("seifert",),
    ("enumerate", "--all-types"),
)
SCAN_COMMAND = ("seifert", "--json")

# Known-defect probes, run once per invocation outside the timed passes, by
# the workload whose failed_share they count in. The first raises
# RecursionError at the seed commit; the second must report 0 solver/oracle
# mismatches.
PROBES = {
    "seifert-scan": cli_op("enumerate", "-1/2,2/5,1/1001"),
    "family-sweep": cli_op("enumerate", "--cross-check", "-1/2,2/5,1/11"),
}

POOL_SEED = 1989
POOL_SIZE = 500
MIX_RANDOM = 120
SCAN_RANDOM = 300
ALL_ODD_SHARE = 0.15

WORKLOADS = ("family-sweep", "knot-mix", "seifert-scan")

_ODD = (3, 5, 7, 9, 11)
_EVEN = (2, 4, 6, 8, 10, 12)


def random_knots(seed: int, count: int) -> list[str]:
    """``count`` knot specs with 3 or 4 tangles and denominators at most 12.

    Half the knots have 3 tangles and half 4, and a fixed share has only
    odd denominators; every other knot has exactly one even denominator.
    Numerators are coprime to their denominator with absolute value below
    it. The same seed gives the same list.
    """
    rng = random.Random(seed)
    sizes = [3 + i % 2 for i in range(count)]
    n_odd = round(count * ALL_ODD_SHARE)
    all_odd = [True] * n_odd + [False] * (count - n_odd)
    rng.shuffle(sizes)
    rng.shuffle(all_odd)
    knots = []
    for size, odd_only in zip(sizes, all_odd):
        dens = [rng.choice(_ODD) for _ in range(size)]
        if not odd_only:
            dens[rng.randrange(size)] = rng.choice(_EVEN)
        fracs = []
        for q in dens:
            p = rng.choice([p for p in range(1 - q, q) if p and gcd(p, q) == 1])
            fracs.append(f"{p}/{q}")
        knots.append(",".join(fracs))
    return knots


def pool_knots() -> list[str]:
    return random_knots(POOL_SEED, POOL_SIZE)


def sample_ops(rng: random.Random, candidates: list[Op], count: int, reference: dict) -> list[Op]:
    """``count`` ops drawn from ``candidates``, one from each of ``count``
    strata, with no knot drawn twice where the stratum allows.

    The strata cut the candidates sorted by their reference outcome
    (completed first) and then by their work in the reference, counted in
    ``Frac`` constructions. Every seed thus draws the same mix of cheap,
    dear and refused ops, and per-op latency percentiles move little from
    seed to seed.
    """
    ranked = sorted(candidates, key=lambda op: (reference[op.key][0] != 0, reference[op.key][2]))
    used: set[str] = set()
    picked = []
    for i in range(count):
        stratum = ranked[i * len(ranked) // count : (i + 1) * len(ranked) // count]
        rng.shuffle(stratum)
        op = next((op for op in stratum if op.argv[-1] not in used), stratum[0])
        used.add(op.argv[-1])
        picked.append(op)
    return picked


def workload_ops(name: str, seed: int, reference: dict) -> list[Op]:
    """The ops of one pass of a workload, in run order. ``reference`` maps
    op keys to [exit code, stdout digest, Frac constructions] at the seed
    commit."""
    rng = random.Random(seed)
    if name == "family-sweep":
        ops = [cli_op("verify-family", "--from", str(n), "--to", str(n)) for n in FAMILY_SWEEP_N]
    elif name == "knot-mix":
        candidates = [cli_op(*command, spec) for spec in pool_knots() for command in MIX_COMMANDS]
        ops = sample_ops(rng, candidates, MIX_RANDOM, reference)
    elif name == "seifert-scan":
        candidates = [cli_op(*SCAN_COMMAND, spec) for spec in pool_knots()]
        ops = [cli_op(*SCAN_COMMAND, f"-1/2,2/5,1/{n}") for n in SEIFERT_SCAN_N]
        ops += sample_ops(rng, candidates, SCAN_RANDOM, reference)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    return list(ANCHORS) + ops if name == "knot-mix" else ops


def reference_ops() -> list[Op]:
    """Every op any seed can generate, plus the probes: the set
    ``reference.json`` covers."""
    ops = [cli_op("verify-family", "--from", str(n), "--to", str(n)) for n in FAMILY_SWEEP_N]
    ops += [cli_op(*SCAN_COMMAND, f"-1/2,2/5,1/{n}") for n in SEIFERT_SCAN_N]
    ops += ANCHORS
    for spec in pool_knots():
        ops += [cli_op(*command, spec) for command in MIX_COMMANDS + (SCAN_COMMAND,)]
    ops += PROBES.values()
    return ops
