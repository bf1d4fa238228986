"""The paper's family K_n = M(-1/2, 2/5, 1/n), odd n >= 11: its expected
slope pair, their gap, and the check of one member against the pipeline."""

from __future__ import annotations

from .rationals import Frac, decimal_str
from .surfaces import analyze
from .systems import DEFAULT_COMBINATION_CAP, MontesinosKnot


def family_knot(n: int) -> MontesinosKnot:
    return MontesinosKnot.parse(f"-1/2,2/5,1/{n}")


def expected_family_slopes(n: int) -> tuple[Frac, Frac]:
    return Frac(2 * (n - 1) ** 2, n), Frac(2 * (n * n - 9 * n + 15), n - 7)


def expected_family_gap(n: int) -> Frac:
    return Frac(2) * (Frac(1, n - 7) - Frac(1, n))


def verify_family_row(n: int, cap: int = DEFAULT_COMBINATION_CAP) -> dict:
    """One family check; the row carries pass/fail and the failed fields."""
    # every check reads type I reports or the type III reference; a type II
    # report has no Euler characteristic, no proven essentiality and no
    # Seifert flag, so it can neither pass nor fail one
    reports, ref_twist, _ = analyze(family_knot(n), type_ii=False, cap=cap)
    slope_small, slope_big = expected_family_slopes(n)
    failures = []

    def pick(slope):
        return [r for r in reports if r.slope == slope]

    small = pick(slope_small)
    big = pick(slope_big)
    if not any(r.essential == "proven" and r.essential_reason == "common-sign" for r in small):
        failures.append("slope_small")
    if not any(r.essential == "proven" and r.essential_reason == "constant-path" for r in big):
        failures.append("slope_big")
    if ref_twist != 4 - 2 * n:
        failures.append("reference_twist")
    if not any(r.sheets == n and r.euler == -n and r.boundary_components == 1 for r in small):
        failures.append("surface_small_invariants")
    if not any(
        r.sheets == n - 7 and r.euler == -(n - 7) and r.boundary_components == 2 and r.notes
        for r in big
    ):
        failures.append("surface_big_invariants")
    gap = slope_big - slope_small
    return {
        "n": n,
        "slope_small": str(slope_small),
        "slope_big": str(slope_big),
        "gap": str(gap),
        "gap_decimal": decimal_str(gap),
        "reference_twist": str(ref_twist),
        "pass": not failures,
        "failures": failures,
    }
