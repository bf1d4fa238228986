"""Invariants of the candidate surface behind a validated edgepath system.

The twist of a system is the sum of its edge twists. Boundary slopes are
twist differences against the Seifert reference, so the reference itself
has slope 0 and only differences matter. The reference is walked once per
knot by ``systems.find_seifert_system``, and exactly one report, the one
whose system has the reference's paths, carries the Seifert flag.

The number of sheets is the least common multiple of the integers forced
by the path endpoints: a final partial edge of length k/(k+l) in lowest
terms forces a multiple of k+l, and a constant path with weight k/(k+l)
on the interior vertex forces a multiple of k. Sheets factor as
(boundary components) x (denominator of the reduced slope); reports
carry the slope expression over the sheet count unreduced, so any
collapse of that denominator is auditable. For a type I system with
common endpoint u the Euler characteristic satisfies

    -chi / sheets = sum of non-constant path lengths
                    + N_const - N
                    + (N - 2 - sum over constant paths of 1/q_j) / (1 - u)

and the right-hand side times the sheet count must come out an integer.

Essentiality is reported as "proven" only where one of the two sufficient
conditions applies to a type I system: all final edges share one sign, or
at least one path is constant. Everything else is "undetermined"; the
package never claims a surface is inessential.

``analyze`` is the whole pipeline for one knot; it builds type II systems
and reports only when its caller asks for them. The enumeration hands its
systems over unsorted, and ``build_reports`` sorts the reports once: by
slope, compared as integers over the slopes' common denominator, then by
system type, with rendered paths ordering only the reports that tie.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import groupby
from math import lcm
from typing import NamedTuple

from .rationals import Frac
from .systems import (
    DEFAULT_COMBINATION_CAP,
    EdgepathSystem,
    MontesinosKnot,
    enumerate_systems_with_diagnostics,
    find_seifert_system,
    system_twist,
)


class IntegrityError(Exception):
    """An identity that must hold for every report failed: a bug or an
    input outside the machinery's stated scope."""


def number_of_sheets(system: EdgepathSystem) -> int:
    factors = [1]
    for path in system.paths:
        t = path.final_weight
        if path.is_constant:
            if t <= 0 or t > 1:
                raise IntegrityError(f"constant weight {t} outside (0, 1]")
            factors.append(t.num)
        elif t is not None:
            factors.append(t.den)
    return lcm(*factors)


def boundary_component_count(sheets: int, slope: Frac) -> int:
    components, remainder = divmod(sheets, slope.den)
    if remainder:
        raise IntegrityError(
            f"slope denominator {slope.den} does not divide the {sheets} sheets"
        )
    return components


def euler_ratio(lengths, n_total: int, const_denoms, u0: Frac) -> Frac:
    """-chi/sheets from the raw ingredients; exposed for direct checks.
    There is one constant path per entry of ``const_denoms``."""
    total = Frac(0)
    for x in lengths:
        total = total + x
    total = total + Frac(len(const_denoms) - n_total)
    coeff = Frac(n_total - 2)
    for q in const_denoms:
        coeff = coeff - Frac(1, q)
    return total + coeff / (Frac(1) - u0)


def euler_characteristic_type_I(system: EdgepathSystem, sheets: int) -> int:
    if system.system_type != "I":
        raise ValueError("the Euler characteristic formula covers type I only")
    lengths = [p.length() for p in system.paths if not p.is_constant]
    const_denoms = [p.tangle.den for p in system.paths if p.is_constant]
    ratio = euler_ratio(lengths, len(system.paths), const_denoms, system.common_u)
    chi = -(ratio * sheets)
    if chi.den != 1:
        raise IntegrityError(f"non-integral Euler characteristic {chi}")
    return chi.num


def essentiality(system: EdgepathSystem) -> tuple[str, str | None]:
    """("proven", reason) or ("undetermined", None)."""
    if system.system_type != "I":
        return ("undetermined", None)
    if any(p.is_constant for p in system.paths):
        return ("proven", "constant-path")
    signs = {p.last_sign() for p in system.paths}
    if len(signs) == 1 and None not in signs:
        return ("proven", "common-sign")
    return ("undetermined", None)


# -- reports -------------------------------------------------------------


CSV_COLUMNS = (
    "knot",
    "type",
    "slope",
    "twist",
    "sheets",
    "euler",
    "boundary_components",
    "essential",
    "seifert",
)


class SurfaceReport(NamedTuple):
    system: EdgepathSystem
    twist: Frac
    slope: Frac
    raw_slope: tuple[int, int]
    sheets: int
    euler: int | None
    boundary_components: int
    essential: str
    essential_reason: str | None
    seifert_flag: bool
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "slope": str(self.slope),
            "twist": str(self.twist),
            "sheets": self.sheets,
            "euler": self.euler,
            "boundary_components": self.boundary_components,
            "essential": self.essential,
            "type": self.system.system_type,
            "knot": self.system.knot.spec_string,
            "seifert": self.seifert_flag,
            "essential_reason": self.essential_reason,
            "raw_slope": f"{self.raw_slope[0]}/{self.raw_slope[1]}",
            "paths": list(self.system.render_paths()),
            "notes": list(self.notes),
        }


def build_report(system: EdgepathSystem, reference_twist: Frac, seifert: bool) -> SurfaceReport:
    """One system's report; ``seifert`` marks the reference system itself."""
    twist = system_twist(system)
    slope = twist - reference_twist
    sheets = number_of_sheets(system)
    components = boundary_component_count(sheets, slope)
    raw_slope = (slope.num * components, sheets)
    euler = euler_characteristic_type_I(system, sheets) if system.system_type == "I" else None
    status, reason = essentiality(system)
    notes = []
    if components > 1:
        notes.append(
            f"slope expression {raw_slope[0]}/{raw_slope[1]} reduces by factor {components}; "
            "the component count uses the reduced denominator"
        )
    return SurfaceReport(
        system=system, twist=twist, slope=slope, raw_slope=raw_slope, sheets=sheets, euler=euler,
        boundary_components=components, essential=status, essential_reason=reason,
        seifert_flag=seifert, notes=tuple(notes),
    )


def build_reports(systems, reference: EdgepathSystem) -> list[SurfaceReport]:
    """Reports for all systems against the Seifert reference system, sorted
    by slope, then system type, then rendered paths, in any input order.
    A report is flagged as the reference exactly when its system is type
    III with the reference's paths, and exactly one must be
    (IntegrityError otherwise)."""
    reference_twist = system_twist(reference)
    reports = [
        build_report(s, reference_twist, s.system_type == "III" and s.paths == reference.paths)
        for s in systems
    ]
    flagged = sum(r.seifert_flag for r in reports)
    if flagged != 1:
        raise IntegrityError(f"the Seifert reference matches {flagged} of the enumerated systems, not one")
    # one sort on the slopes as integers over their common denominator ("I" <
    # "II" < "III" as strings); paths are rendered only to order a tie
    scale = lcm(*(r.slope.den for r in reports))

    def key(r):
        return r.slope.num * (scale // r.slope.den), r.system.system_type

    reports.sort(key=key)
    ordered = []
    for _, group in groupby(reports, key=key):
        ordered.extend(sorted(group, key=cmp_to_key(_by_rendered_paths)))
    return ordered


def _by_rendered_paths(a: SurfaceReport, b: SurfaceReport) -> int:
    """The order of the two systems' rendered path tuples. A path object
    the two systems share renders alike, so it is skipped unrendered: a
    long chain shared by tied systems is never rendered here."""
    for x, y in zip(a.system.paths, b.system.paths):
        if x is not y:
            rx, ry = x.render(), y.render()
            if rx != ry:
                return -1 if rx < ry else 1
    return 0


class Analysis(NamedTuple):
    """What ``analyze`` computes for one knot."""

    reports: list[SurfaceReport]
    reference_twist: Frac
    diagnostics: list[str]


def analyze(
    knot: MontesinosKnot, type_ii: bool = True, cap: int = DEFAULT_COMBINATION_CAP
) -> Analysis:
    """The whole computation for one knot: the reports of every candidate
    system, of type II only when ``type_ii`` is set (the cap is checked
    first, over all three types), the Seifert reference twist they are
    measured against, and the enumeration's degeneracy notes."""
    systems, diagnostics = enumerate_systems_with_diagnostics(knot, cap, type_ii)
    reports = build_reports(systems, find_seifert_system(knot))
    # the one flagged report is the reference's own
    reference_twist = next(r.twist for r in reports if r.seifert_flag)
    return Analysis(reports, reference_twist, diagnostics)
