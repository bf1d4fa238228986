"""Knot validation, the exact endpoint solve, enumeration, Seifert detection."""

import random
from itertools import product

import pytest

from montesinos import (
    DegenerateSystemError,
    EdgepathSystem,
    Frac,
    PathSkeleton,
    constant_path,
    enumerate_systems,
    enumerate_systems_with_diagnostics,
    find_seifert_system,
    is_seifert_candidate,
    path_from_vertices,
    penultimate_vertex,
    solve_endpoints,
    system_twist,
    validate_system,
)
from montesinos import CapExceededError, enumerate_skeletons
from montesinos import systems as systems_module
from montesinos.cli import main
from montesinos.rationals import INF
from montesinos.systems import (
    _build_solved_system,
    _c_range,
    _meeting_combinations,
    _solved_systems,
    solver_choices,
)

from helpers import fr, knot, skeleton, solve_endpoints_by_fracs
from test_random_knots import KNOTS as RANDOM_KNOTS
from test_seifert_search import random_specs


# -- knot validation -------------------------------------------------------


def test_knot_parsing():
    k = knot("-1/2,2/5,1/11")
    assert k.spec_string == "-1/2,2/5,1/11"
    assert str(k) == "M(-1/2, 2/5, 1/11)"


def test_knot_needs_three_tangles():
    with pytest.raises(ValueError, match="at least 3"):
        knot("-1/2,2/5")


def test_knot_rejects_integer_tangles():
    with pytest.raises(ValueError):
        knot("-1/2,2,1/3")


def test_knot_rejects_two_even_denominators():
    with pytest.raises(ValueError, match="even denominator"):
        knot("1/2,1/4,1/3")
    knot("1/2,1/3,1/5")  # one even denominator is fine


# -- endpoint solving --------------------------------------------------------


def test_solved_endpoints_first_system():
    choices = [
        skeleton("-1/2", "-1/2", "-1"),
        skeleton("2/5", "2/5", "1/2", "0"),
        skeleton("1/11", "1/11", "0"),
    ]
    solution = solve_endpoints(choices)
    assert solution.weights == (fr("1/11"), fr("1/11"), fr("10/11"))
    assert solution.c == fr("21/11")
    assert solution.u0 == fr("10/21")


def test_solved_endpoints_with_constant_path():
    choices = [
        skeleton("-1/2"),
        skeleton("2/5", "2/5", "1/2"),
        skeleton("1/11", "1/11", "0"),
    ]
    solution = solve_endpoints(choices)
    assert solution.weights == (fr("1/2"), fr("3/4"))
    assert solution.c == fr("7/2")
    assert solution.u0 == fr("5/7")


def test_enumerated_constant_paths_are_roots_with_one_weight():
    constants = [
        p for s in enumerate_systems(knot("-1/2,2/5,1/11")) for p in s.paths if p.is_constant
    ]
    assert constants
    for path in constants:
        assert path.skeleton.n_edges == 0 and path.skeleton.parent is None
        assert path == constant_path(path.tangle, path.final_weight)
    assert "(4/7)<-1/2> + (3/7)<-1/2>o" in {p.render() for p in constants}


def test_infeasible_choice_returns_none():
    # without the constant path the unique solution needs a weight above 1
    choices = [
        skeleton("-1/2", "-1/2", "-1"),
        skeleton("2/5", "2/5", "1/2"),
        skeleton("1/11", "1/11", "0"),
    ]
    assert solve_endpoints(choices) is None


def test_symmetric_toy_system_is_degenerate():
    # endpoints satisfy the zero sum for every weight (t, t): a continuous
    # family, flagged rather than resolved arbitrarily
    choices = [skeleton("1/2", "1/2", "0"), skeleton("-1/2", "-1/2", "0")]
    with pytest.raises(DegenerateSystemError):
        solve_endpoints(choices)


def test_inconsistent_choice_returns_none():
    # A == 0 but B != 0: no c satisfies the zero sum
    assert solve_endpoints([skeleton("-1/3", "-1/3", "0"), skeleton("1/2")]) is None


def test_all_constant_rejected():
    # roots only: A is the sum of the fractions and B = 0, so a zero sum is
    # degenerate and any other sum puts c = 0 below every root's range
    with pytest.raises(DegenerateSystemError) as exc:
        solve_endpoints([skeleton("1/2"), skeleton("-1/2")])
    assert str(exc.value) == (
        "degenerate: endpoints form a continuous family for constant on <1/2>; constant on <-1/2>"
    )
    assert solve_endpoints([skeleton("1/2"), skeleton("-1/3"), skeleton("1/5")]) is None
    # the enumeration solves its roots-only combination, first in product order
    _, notes = enumerate_systems_with_diagnostics(knot("1/3,-1/3,1/5,-1/5"))
    assert notes[0] == "degenerate: endpoints form a continuous family for " + (
        "constant on <1/3>; constant on <-1/3>; constant on <1/5>; constant on <-1/5>"
    )


def test_solver_rejects_infinity_finals():
    with pytest.raises(ValueError):
        solve_endpoints(
            [skeleton("1/2", "1/2", "0", "inf"), skeleton("-1/2", "-1/2", "0")]
        )


def solve_outcome(solve, choices):
    """What a solve gives, comparable across solvers: (weights, c), None,
    the degenerate message, or "ValueError"."""
    try:
        result = solve(choices)
    except DegenerateSystemError as exc:
        return ("degenerate", str(exc))
    except ValueError:
        return "ValueError"
    return result


def test_integer_kernel_matches_the_frac_closed_form():
    # every solver combination, not only those whose c-ranges meet
    kinds = set()
    for k in [knot("-1/2,2/5,1/11"), knot("3/7,-5/13,8/21"), *RANDOM_KNOTS[:4]]:
        for combo in product(*(solver_choices(enumerate_skeletons(f)) for f in k.tangles)):
            expected = solve_outcome(solve_endpoints_by_fracs, combo)
            assert solve_outcome(solve_endpoints, combo) == expected, [str(ch) for ch in combo]
            if expected is None:
                kinds.add("rejected")
            else:
                kinds.add("degenerate" if expected[0] == "degenerate" else "accepted")
    assert kinds == {"accepted", "rejected", "degenerate"}


def random_hand_built_choices(rng):
    """Three hand-built choices from ``PathSkeleton.from_vertices``: final
    edges that need not be Farey edges, with q_i > s_i as well as
    q_i < s_i (never equal, vertical or toward <inf>), and now and then a
    root, the constant choice."""
    choices = []
    for _ in range(3):
        tangle = Frac(rng.randint(-9, 9), rng.randint(2, 9))
        if rng.random() < 0.25:
            choices.append(PathSkeleton(tangle))
            continue
        verts = [tangle]
        for _ in range(rng.randint(1, 2)):
            while True:
                v = Frac(rng.randint(-9, 9), rng.randint(1, 12))
                if v.den != verts[-1].den:
                    break
            verts.append(v)
        choices.append(PathSkeleton.from_vertices(tangle, verts))
    return choices


# the solver's one refusal for a final edge with q_i >= s_i
NOT_DESCENDING = "has a final edge that does not run to a smaller denominator"


def test_integer_kernel_matches_the_frac_closed_form_on_hand_built_chains():
    rng = random.Random(20261018)
    rising = 0
    kinds = set()
    for _ in range(3000):
        choices = random_hand_built_choices(rng)
        if any(not ch.constant and ch.final_left.den > ch.final_right.den for ch in choices):
            # a final edge to a larger denominator is refused, never solved
            with pytest.raises(ValueError, match=NOT_DESCENDING):
                solve_endpoints(choices)
            rising += 1
            continue
        expected = solve_outcome(solve_endpoints_by_fracs, choices)
        assert solve_outcome(solve_endpoints, choices) == expected, [str(ch) for ch in choices]
        kinds.add("rejected" if expected is None else "accepted")
    assert rising and kinds == {"accepted", "rejected"}


@pytest.mark.parametrize(
    "tangle, vertices",
    [
        ("1/3", ["1/3", "1/2", "2/5"]),  # rising: <1/2> - <2/5>, q > s
        ("1/2", ["1/2", "1", "2"]),  # vertical: <1> - <2>, q = s = 1
    ],
)
def test_final_edges_not_running_to_a_smaller_denominator_are_refused(tangle, vertices):
    # equal denominators: test_final_edge_between_equal_denominators_is_refused
    chain = PathSkeleton.from_vertices(fr(tangle), map(fr, vertices))
    with pytest.raises(ValueError, match=NOT_DESCENDING):
        solve_endpoints([chain, skeleton("1/2", "1/2", "0"), skeleton("1/5")])


def test_final_edge_between_equal_denominators_is_refused():
    # <1/3> - <2/3> joins no Farey neighbours; the closed form divides by 0
    equal = PathSkeleton.from_vertices(fr("1/3"), [fr("1/3"), fr("2/3")])
    choices = [equal, skeleton("1/2", "1/2", "0"), skeleton("1/5")]
    with pytest.raises(ValueError):
        solve_endpoints_by_fracs(choices)
    with pytest.raises(ValueError, match=NOT_DESCENDING):
        solve_endpoints(choices)


def test_constant_marker_at_infinity_is_refused():
    choices = [skeleton("1/2", "1/2", "0"), PathSkeleton(INF), skeleton("1/5")]
    with pytest.raises(ValueError):
        solve_endpoints_by_fracs(choices)
    with pytest.raises(ValueError, match="infinite"):
        solve_endpoints(choices)


def test_rejected_solve_builds_no_frac(monkeypatch):
    k = knot("-1/2,2/5,1/21")
    combos = list(product(*(solver_choices(enumerate_skeletons(f)) for f in k.tangles)))
    built = [0]
    frac_init = Frac.__init__

    def counted_init(self, num, den=1):
        built[0] += 1
        frac_init(self, num, den)

    monkeypatch.setattr(Frac, "__init__", counted_init)
    counts = {"accepted": set(), "rejected": set(), "degenerate": set()}
    for combo in combos:
        before = built[0]
        try:
            kind = "rejected" if solve_endpoints(combo) is None else "accepted"
        except DegenerateSystemError:
            kind = "degenerate"
        counts[kind].add(built[0] - before)
    assert counts["rejected"] == {0}
    assert counts["degenerate"] <= {0}
    assert counts["accepted"] and 0 not in counts["accepted"]


# -- enumeration ---------------------------------------------------------------


@pytest.fixture(scope="module")
def k11_systems():
    return enumerate_systems(knot("-1/2,2/5,1/11"))


def test_enumeration_contains_both_named_type_one_systems(k11_systems):
    rendered = {s.render_paths() for s in k11_systems}
    assert (
        "(1/11)<-1> + (10/11)<-1/2> - <-1/2>",
        "(1/11)<0> + (10/11)<1/2> - <1/2> - <2/5>",
        "(10/11)<0> + (1/11)<1/11> - <1/11>",
    ) in rendered
    assert (
        "(4/7)<-1/2> + (3/7)<-1/2>o",
        "(1/2)<1/2> + (1/2)<2/5> - <2/5>",
        "(3/4)<0> + (1/4)<1/11> - <1/11>",
    ) in rendered


def test_enumeration_contains_the_reference_system(k11_systems):
    reference = find_seifert_system(knot("-1/2,2/5,1/11"))
    assert any(s == reference for s in k11_systems)


def test_enumeration_is_deterministic_and_duplicate_free(k11_systems):
    again = enumerate_systems(knot("-1/2,2/5,1/11"))
    assert k11_systems == again
    keys = [s.render_paths() for s in k11_systems]
    assert len(keys) == len(set(keys))


def test_every_enumerated_system_validates(k11_systems):
    for system in k11_systems:
        assert validate_system(system) is None


def test_type_one_round_trip(k11_systems):
    for system in k11_systems:
        if system.system_type != "I":
            continue
        coords = [p.endpoint_uv() for p in system.paths]
        assert len({u for u, _ in coords}) == 1
        total = Frac(0)
        for _, v in coords:
            total = total + v
        assert total == 0


def test_combination_cap():
    with pytest.raises(CapExceededError):
        enumerate_systems(knot("-1/2,2/5,1/11"), cap=10)


def test_no_degenerate_diagnostics_for_the_family():
    _, diagnostics = enumerate_systems_with_diagnostics(knot("-1/2,2/5,1/11"))
    assert diagnostics == []


# -- c-range pruning -------------------------------------------------------------

PRUNE_KNOTS = ["-1/2,2/5,1/11", "-1/2,1/5,1/3,-1/3", "-2/3,5/8,4/9", "7/9,-1/7,-4/7"]


def _ranges_meet(combo) -> bool:
    ranges = [_c_range(ch) for ch in combo]
    return max(lo for lo, _ in ranges) < min(hi for _, hi in ranges)


@pytest.mark.parametrize("spec", PRUNE_KNOTS)
def test_pruned_combinations_have_no_endpoint_in_range(spec):
    per_tangle = [solver_choices(enumerate_skeletons(f)) for f in knot(spec).tangles]
    kept = list(_meeting_combinations(per_tangle))
    kept_set = set(kept)
    full = list(product(*per_tangle))
    assert [combo for combo in full if combo in kept_set] == kept  # product order
    skipped = [combo for combo in full if combo not in kept_set]
    assert skipped
    for combo in skipped:
        assert not _ranges_meet(combo)
        try:
            assert solve_endpoints(combo) is None
        except DegenerateSystemError:
            pass


@pytest.mark.parametrize("spec", PRUNE_KNOTS)
def test_pruning_keeps_every_system(spec, monkeypatch):
    pruned = enumerate_systems(knot(spec))
    monkeypatch.setattr(systems_module, "_meeting_combinations", lambda pt: product(*pt))
    assert enumerate_systems(knot(spec)) == pruned


def _degenerate_notes(capsys, spec):
    assert main(["enumerate", spec]) == 0
    prefix = "note: degenerate: endpoints form a continuous family for "
    lines = capsys.readouterr().err.splitlines()
    return [line[len(prefix):] for line in lines if line.startswith(prefix)]


def test_degenerate_notes_only_for_meeting_ranges(capsys, monkeypatch):
    k = knot("-1/2,1/5,1/3,-1/3")
    notes = _degenerate_notes(capsys, k.spec_string)
    monkeypatch.setattr(systems_module, "_meeting_combinations", lambda pt: product(*pt))
    unpruned = _degenerate_notes(capsys, k.spec_string)
    assert (len(notes), len(unpruned)) == (2, 24)
    assert set(notes) <= set(unpruned)
    names = [{str(sk): sk for sk in solver_choices(enumerate_skeletons(f))} for f in k.tangles]
    for note in unpruned:
        combo = [by_name[part] for by_name, part in zip(names, note.split("; "))]
        assert _ranges_meet(combo) == (note in notes), note
    skipped = "<-1> - <-1/2>; <1/4> - <1/5>; constant on <1/3>; constant on <-1/3>"
    assert skipped in unpruned and skipped not in notes


# -- twist regions ---------------------------------------------------------------

# The last two specs' degenerate notes come out of order when the regions'
# notes are not put back in product order.
REGION_KNOTS = (
    PRUNE_KNOTS
    + [f"-1/2,2/5,1/{n}" for n in range(11, 42, 2)]
    + random_specs(2022, 40)
    + ["-1/7,-7/10,7/11,2/5", "-1/9,1/9,1/6,-1/9"]
)


def _solve_every_meeting_combination(k, solvable):
    """The solved systems and degenerate notes by one ``solve_endpoints``
    call per meeting combination of single choices, in product order."""
    systems, notes = [], []
    for combo in _meeting_combinations(solvable):
        try:
            solution = solve_endpoints(combo)
        except DegenerateSystemError as exc:
            notes.append(str(exc))
            continue
        if solution is not None:
            systems.append(_build_solved_system(k, combo, solution))
    return systems, notes


@pytest.mark.parametrize("spec", REGION_KNOTS)
def test_twist_regions_solve_as_every_choice_does(spec):
    k = knot(spec)
    solvable = [solver_choices(enumerate_skeletons(f)) for f in k.tangles]
    expected_systems, expected_notes = _solve_every_meeting_combination(k, solvable)
    assert _solved_systems(k, solvable, type_ii=True) == (expected_systems, expected_notes)
    systems, notes = enumerate_systems_with_diagnostics(k)
    assert notes == expected_notes
    assert systems[: len(expected_systems)] == expected_systems


def test_region_sample_holds_degenerate_notes():
    noted = [spec for spec in REGION_KNOTS if enumerate_systems_with_diagnostics(knot(spec))[1]]
    assert len(noted) >= 5 and {"-1/7,-7/10,7/11,2/5", "-1/9,1/9,1/6,-1/9"} <= set(noted)


def _solve_calls(monkeypatch, spec):
    calls = []
    original = systems_module.solve_endpoints

    def counted(choices):
        calls.append(len(choices))
        return original(choices)

    monkeypatch.setattr(systems_module, "solve_endpoints", counted)
    enumerate_systems_with_diagnostics(knot(spec))
    monkeypatch.undo()
    return len(calls)


def test_solve_calls_do_not_grow_with_the_twist_region(monkeypatch):
    deep = _solve_calls(monkeypatch, "-1/2,2/5,1/10001")
    assert deep == _solve_calls(monkeypatch, "-1/2,2/5,1/101") > 0


# -- independent validation ------------------------------------------------------


def test_validator_catches_broken_zero_sum(k11_systems):
    target = next(
        s
        for s in k11_systems
        if s.system_type == "I" and not any(p.is_constant for p in s.paths)
    )
    k = target.knot
    perturbed_last = path_from_vertices(
        fr("1/11"), [fr("1/11"), fr("0")], fr("9/11")
    )
    broken = EdgepathSystem(k, target.paths[:2] + (perturbed_last,), target.common_u)
    violation = validate_system(broken)
    assert violation is not None and violation.condition == "E3"


def test_validator_catches_retraced_step():
    # a fraction-edge retrace cannot even be built (edges are directed right
    # to left), so retrace along a vertical edge, where u stays equal
    k = knot("-1/2,2/5,1/3")
    bad_path = path_from_vertices(fr("1/3"), [fr("1/3"), fr("0"), fr("1"), fr("0")])
    paths = (
        path_from_vertices(fr("-1/2"), [fr("-1/2"), fr("-1")]),
        path_from_vertices(fr("2/5"), [fr("2/5"), fr("1/2"), fr("0")]),
        bad_path,
    )
    system = EdgepathSystem(k, paths, Frac(0))
    violation = validate_system(system)
    assert violation is not None and violation.condition == "E2"
    assert violation.path_index == 2


def test_validator_catches_triangle_run():
    k = knot("-1/2,2/5,1/3")
    paths = (
        path_from_vertices(fr("-1/2"), [fr("-1/2"), fr("-1"), INF]),
        path_from_vertices(fr("2/5"), [fr("2/5"), fr("1/2"), fr("0"), INF]),
        path_from_vertices(fr("1/3"), [fr("1/3"), fr("1/2"), fr("1"), INF]),
    )
    # rebuild the last path with a triangle run 1/3 -> 1/2 -> 0
    bad = PathSkeleton.from_vertices(fr("1/3"), (fr("1/3"), fr("1/2"), fr("0"), INF)).to_edgepath()
    system = EdgepathSystem(k, paths[:2] + (bad,), Frac(-1))
    violation = validate_system(system)
    assert violation is not None and violation.condition == "E2"


@pytest.mark.parametrize(
    "spec, vertices, detail",
    [
        ("1/2,1/3,-1/3", ("1/2", "2/5"), "runs left to right"),
        ("2/5,1/3,-1/3", ("2/5", "1/5"), "are not neighbours"),
    ],
)
def test_validator_reports_a_non_edge_pair_as_a_violation(spec, vertices, detail):
    # a hand-built path holding a pair that is no leftward Farey edge
    k = knot(spec)
    bad = PathSkeleton.from_vertices(k.tangles[0], tuple(map(fr, vertices))).to_edgepath()
    paths = (
        bad,
        path_from_vertices(fr("1/3"), [fr("1/3"), fr("0"), INF]),
        path_from_vertices(fr("-1/3"), [fr("-1/3"), fr("0"), INF]),
    )
    violation = validate_system(EdgepathSystem(k, paths, Frac(-1)))
    assert violation is not None
    assert (violation.condition, violation.path_index) == ("E2", 0)
    assert detail in violation.detail


def test_validator_catches_wrong_tangle():
    k = knot("-1/2,2/5,1/11")
    paths = (
        path_from_vertices(fr("-1/2"), [fr("-1/2"), fr("-1"), INF]),
        path_from_vertices(fr("2/5"), [fr("2/5"), fr("1/2"), fr("0"), INF]),
        path_from_vertices(fr("1/3"), [fr("1/3"), fr("0"), INF]),
    )
    system = EdgepathSystem(k, paths, Frac(-1))
    violation = validate_system(system)
    assert violation is not None and violation.condition == "E1"


# -- Seifert reference ------------------------------------------------------------


def test_seifert_reference_for_k11():
    reference = find_seifert_system(knot("-1/2,2/5,1/11"))
    penultimates = [penultimate_vertex(p) for p in reference.paths]
    assert penultimates == [fr("-1"), fr("0"), fr("1")]
    assert system_twist(reference) == 4 - 2 * 11 == -18
    assert is_seifert_candidate(reference)


def test_seifert_twist_along_family():
    for n in (11, 13, 17, 25):
        reference = find_seifert_system(knot(f"-1/2,2/5,1/{n}"))
        assert system_twist(reference) == 4 - 2 * n


def test_parity_rejects_single_odd_penultimate():
    k = knot("-1/2,2/5,1/11")
    paths = (
        path_from_vertices(fr("-1/2"), [fr("-1/2"), fr("0"), INF]),
        path_from_vertices(fr("2/5"), [fr("2/5"), fr("1/2"), fr("0"), INF]),
        path_from_vertices(
            fr("1/11"), [Frac(1, k) for k in range(11, 0, -1)] + [INF]
        ),
    )
    system = EdgepathSystem(k, paths, Frac(-1))
    assert validate_system(system) is None
    assert [penultimate_vertex(p) for p in system.paths] == [fr("0"), fr("0"), fr("1")]
    assert not is_seifert_candidate(system)  # one odd penultimate


def test_mixed_parity_path_rejected():
    k = knot("-1/2,2/5,1/11")
    # 2/5 - 1/3 - 0 mixes two mod-2 edge classes
    paths = (
        path_from_vertices(fr("-1/2"), [fr("-1/2"), fr("-1"), INF]),
        path_from_vertices(fr("2/5"), [fr("2/5"), fr("1/3"), fr("0"), INF]),
        path_from_vertices(fr("1/11"), [fr("1/11"), fr("0"), INF]),
    )
    system = EdgepathSystem(k, paths, Frac(-1))
    assert not is_seifert_candidate(system)
