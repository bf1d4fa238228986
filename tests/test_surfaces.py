"""Twists, slopes, sheets, Euler characteristics, essentiality, reports."""

import csv
import io
import json
import random

import pytest

from montesinos import (
    Frac,
    boundary_component_count,
    build_reports,
    edge_sign,
    SeifertReferenceError,
    enumerate_systems,
    enumerate_systems_with_diagnostics,
    essentiality,
    euler_characteristic_type_I,
    euler_ratio,
    find_seifert_system,
    number_of_sheets,
    system_twist,
)
from montesinos.cli import _print_csv
from montesinos.surfaces import CSV_COLUMNS, IntegrityError

from helpers import fr, knot
from test_random_knots import KNOTS as RANDOM_KNOTS


@pytest.fixture(scope="module")
def k11():
    k = knot("-1/2,2/5,1/11")
    systems = enumerate_systems(k)
    reference = find_seifert_system(k)
    reports = build_reports(systems, reference)
    return k, systems, reference, reports


def _by_paths(systems, first_path_prefix):
    return next(
        s for s in systems if s.render_paths()[0].startswith(first_path_prefix)
    )


def test_system_twists(k11):
    _, systems, reference, _ = k11
    gamma = _by_paths(systems, "(1/11)<-1>")
    gamma_prime = _by_paths(systems, "(4/7)<-1/2>")
    assert system_twist(gamma) == fr("2/11")
    assert system_twist(gamma_prime) == fr("1/2")
    assert system_twist(reference) == -18


def test_boundary_slopes(k11):
    _, systems, _, reports = k11
    gamma = _by_paths(systems, "(1/11)<-1>")
    gamma_prime = _by_paths(systems, "(4/7)<-1/2>")

    def slope_of(system):
        return next(r.slope for r in reports if r.system is system)

    assert slope_of(gamma) == fr("200/11")
    assert slope_of(gamma_prime) == fr("37/2")
    assert [r.slope for r in reports if r.seifert_flag] == [0]


def test_sheet_counts(k11):
    _, systems, _, _ = k11
    assert number_of_sheets(_by_paths(systems, "(1/11)<-1>")) == 11
    assert number_of_sheets(_by_paths(systems, "(4/7)<-1/2>")) == 4


def test_sheets_with_all_half_weights():
    # every final weight 1/2 forces lcm(2, 2, 2) = 2
    from montesinos import EdgepathSystem, path_from_vertices

    k = knot("1/2,1/3,-1/3")
    paths = (
        path_from_vertices(fr("1/2"), [fr("1/2"), fr("0")], fr("1/2")),
        path_from_vertices(fr("1/3"), [fr("1/3"), fr("0")], fr("1/2")),
        path_from_vertices(fr("-1/3"), [fr("-1/3"), fr("0")], fr("1/2")),
    )
    system = EdgepathSystem(k, paths, fr("1/3"))
    assert number_of_sheets(system) == 2


def test_boundary_components(k11):
    _, _, _, reports = k11
    small = next(r for r in reports if r.slope == fr("200/11"))
    big = next(r for r in reports if r.slope == fr("37/2"))
    assert small.boundary_components == 1
    assert big.boundary_components == 2
    assert big.raw_slope == (74, 4)
    assert big.notes and "reduces by factor 2" in big.notes[0]
    assert small.raw_slope == (200, 11) and small.notes == ()
    seifert = next(r for r in reports if r.seifert_flag)
    assert seifert.slope == 0 and seifert.boundary_components == seifert.sheets


def test_component_divisibility_guard():
    with pytest.raises(IntegrityError):
        boundary_component_count(4, fr("1/3"))


def test_euler_characteristics(k11):
    _, systems, _, _ = k11
    gamma = _by_paths(systems, "(1/11)<-1>")
    gamma_prime = _by_paths(systems, "(4/7)<-1/2>")
    assert euler_characteristic_type_I(gamma, 11) == -11
    assert euler_characteristic_type_I(gamma_prime, 4) == -4


def test_euler_formula_inputs_for_both_surfaces(k11):
    _, systems, _, _ = k11
    gamma = _by_paths(systems, "(1/11)<-1>")
    lengths = sorted(p.length() for p in gamma.paths)
    assert lengths == [fr("1/11"), fr("10/11"), fr("12/11")]
    ratio = euler_ratio(lengths, 3, [], gamma.common_u)
    assert ratio == 1


def test_euler_ratio_degenerate_two_path_form():
    # with u = 0 and no constant paths the formula collapses to sum - 2
    lengths = [fr("3/2"), fr("7/3")]
    assert euler_ratio(lengths, 2, [], Frac(0)) == fr("3/2") + fr("7/3") - 2


def test_euler_only_for_type_one(k11):
    _, systems, reference, _ = k11
    with pytest.raises(ValueError):
        euler_characteristic_type_I(reference, 1)


def test_type_two_and_three_reports_carry_no_euler(k11):
    _, _, _, reports = k11
    assert all(r.euler is None for r in reports if r.system.system_type != "I")
    assert all(r.euler is not None for r in reports if r.system.system_type == "I")


def test_essentiality(k11):
    _, systems, reference, _ = k11
    gamma = _by_paths(systems, "(1/11)<-1>")
    gamma_prime = _by_paths(systems, "(4/7)<-1/2>")
    assert essentiality(gamma) == ("proven", "common-sign")
    assert essentiality(gamma_prime) == ("proven", "constant-path")
    assert essentiality(reference) == ("undetermined", None)


def test_mixed_signs_without_constant_is_undetermined():
    # neither sufficient condition applies; this is not a claim of
    # inessentiality, only an absence of proof
    from montesinos import EdgepathSystem, path_from_vertices

    k = knot("2/5,-2/5,1/3")
    paths = (
        path_from_vertices(fr("2/5"), [fr("2/5"), fr("1/2")], fr("1/2")),
        path_from_vertices(fr("-2/5"), [fr("-2/5"), fr("-1/2")], fr("1/2")),
        path_from_vertices(fr("1/3"), [fr("1/3"), fr("0")], fr("1/2")),
    )
    assert {p.last_sign() for p in paths} == {1, -1}
    system = EdgepathSystem(k, paths, fr("1/2"))
    assert essentiality(system) == ("undetermined", None)


def test_report_serialization(k11, capsys):
    _, _, _, reports = k11
    small = next(r for r in reports if r.slope == fr("200/11"))
    payload = small.to_dict()
    head = {k: payload[k] for k in
            ("slope", "twist", "sheets", "euler", "boundary_components", "essential", "type")}
    assert head == {
        "slope": "200/11",
        "twist": "2/11",
        "sheets": 11,
        "euler": -11,
        "boundary_components": 1,
        "essential": "proven",
        "type": "I",
    }
    assert json.loads(json.dumps(payload)) == payload
    # the CSV row is written from the same dict, one cell per column
    _print_csv(CSV_COLUMNS, [payload])
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == list(CSV_COLUMNS)
    assert row == ["-1/2,2/5,1/11", "I", "200/11", "2/11", "11", "-11", "1", "proven", "false"]


def test_reports_sorted_by_slope_then_type(k11):
    _, _, _, reports = k11
    keys = [(r.slope, r.system.system_type) for r in reports]
    assert keys == sorted(keys)


# the benchmark's three wide anchors, then seeded knots
REPORT_ORDER_SPECS = [
    "3/7,-5/13,8/21,13/34",
    "55/89,-34/55,21/34",
    "1/3,2/7,-3/11,5/13,8/21",
] + [k.spec_string for k in RANDOM_KNOTS]


@pytest.mark.parametrize("spec", REPORT_ORDER_SPECS)
def test_one_report_sort_keeps_the_order_of_two(spec):
    k = knot(spec)
    systems, _ = enumerate_systems_with_diagnostics(k)
    try:
        reference = find_seifert_system(k)
    except SeifertReferenceError:  # any one type III system orders the slopes alike
        reference = next(s for s in systems if s.system_type == "III")
    random.Random(spec).shuffle(systems)
    reports = build_reports(systems, reference)
    # the order of two sorts: by type and rendering, then stably by slope and type
    by_rendering = sorted(reports, key=lambda r: r.system._sort_key())
    expected = sorted(by_rendering, key=lambda r: (r.slope, r.system.system_type))
    assert [r.system for r in reports] == [r.system for r in expected]


def test_twist_parity(k11):
    # full edges contribute +-2 each, so twist minus the partial-edge
    # contributions is an even integer
    _, systems, _, _ = k11
    for system in systems:
        partial = Frac(0)
        for path in system.paths:
            if not path.is_constant and path.final_weight is not None:
                partial = partial - 2 * edge_sign(*path.vertices[-2:]) * path.final_weight
        rest = system_twist(system) - partial
        assert rest.den == 1 and rest.num % 2 == 0
