"""Command-line behaviour: formats, determinism, exit codes."""

import json
import re
import subprocess
import sys
from collections import Counter

import pytest

import montesinos.systems as systems_module
from montesinos import MontesinosKnot, bruteforce
from montesinos.cli import main

from helpers import child_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_reports_the_slope_pair(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--json", "-1/2,2/5,1/11")
    assert code == 0
    reports = json.loads(out)
    by_slope = {r["slope"]: r for r in reports}
    assert by_slope["200/11"]["essential"] == "proven"
    assert by_slope["37/2"]["essential"] == "proven"
    zero = [r for r in reports if r["slope"] == "0" and r["seifert"]]
    assert len(zero) == 1


def test_enumerate_needs_three_tangles(capsys):
    code, _, err = run_cli(capsys, "enumerate", "-1/2,2/5")
    assert code == 2
    assert "at least 3" in err


def test_enumerate_rejects_bad_fraction(capsys):
    code, _, err = run_cli(capsys, "enumerate", "-1/2,2/x,1/11")
    assert code == 2
    assert "not a fraction" in err
    # an empty field is a bad fraction, not a field to skip
    for spec in ("1/3,,1/3,1/3", "1/3,1/3,1/3,", ",1/3,1/3,1/3"):
        code, out, err = run_cli(capsys, "enumerate", spec)
        assert (code, out) == (2, "")
        assert "error: not a fraction: ''" in err
    # int() reads digit separators and non-ASCII digits; the parser does not
    for spec in ("1_0/3_3,1/3,1/5", "\u0661/\u0662,1/3,1/5"):
        code, out, err = run_cli(capsys, "enumerate", spec)
        assert (code, out) == (2, "")
        assert "not a fraction" in err


def test_enumerate_cap_exit_code(capsys):
    # 1/3,1/3,1/3 has no Seifert reference: the cap is still checked first
    for spec in ("-1/2,2/5,1/11", "1/3,1/3,1/3"):
        code, _, err = run_cli(capsys, "enumerate", "--cap", "3", spec)
        assert code == 3
        assert "cap" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize(
    "argv", [["enumerate", "1/2,1/3,1/5"], ["pair-gap", "1/2,1/3,1/5"], ["verify-family", "--from", "11"]]
)
def test_cap_must_be_positive(capsys, argv, cap):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cap", cap])
    assert exc.value.code == 2
    assert f"argument --cap: {cap} is not a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option, text",
    [
        (["--from", "1_1", "--cap", "1_000_000_0"], "--from", "1_1"),
        (["--from", "11", "--cap", "1_000_000_0"], "--cap", "1_000_000_0"),
        (["--from", "\u0661\u0661", "--to", "13"], "--from", "\u0661\u0661"),
        (["--from", "11", "--to", "1_3"], "--to", "1_3"),
        (["--from", " 11"], "--from", " 11"),
        (["--from", "11", "--to", "0x0d"], "--to", "0x0d"),
    ],
)
def test_integer_options_read_only_ascii_decimal_digits(capsys, argv, option, text):
    # int() also reads digit separators, non-ASCII digits and whitespace
    with pytest.raises(SystemExit) as exc:
        main(["verify-family"] + argv)
    assert exc.value.code == 2
    assert f"argument {option}: {text} is not an integer" in capsys.readouterr().err


def test_integer_options_take_a_sign(capsys):
    argv = ("verify-family", "--from", "+11", "--to", "+11", "--cap", "+100000")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("n=11 PASS")


def test_enumerate_default_types_and_all_types(capsys):
    _, out, _ = run_cli(capsys, "enumerate", "--json", "-1/2,2/5,1/11")
    assert {r["type"] for r in json.loads(out)} == {"I", "III"}
    _, out, _ = run_cli(capsys, "enumerate", "--json", "--all-types", "-1/2,2/5,1/11")
    reports = json.loads(out)
    assert {r["type"] for r in reports} == {"I", "II", "III"}
    assert all(r["essential"] == "undetermined" for r in reports if r["type"] == "II")


def test_enumerate_dedupe_by_slope(capsys):
    _, out, _ = run_cli(capsys, "enumerate", "--json", "--dedupe", "-1/2,2/5,1/11")
    slopes = [r["slope"] for r in json.loads(out)]
    assert len(slopes) == len(set(slopes))


def test_json_output_round_trips(capsys):
    _, out, _ = run_cli(capsys, "enumerate", "--json", "-1/2,2/5,1/11")
    reports = json.loads(out)
    assert json.loads(json.dumps(reports)) == reports
    assert out == json.dumps(reports, indent=2) + "\n"


def test_csv_columns_fixed(capsys):
    _, out, _ = run_cli(capsys, "enumerate", "--csv", "-1/2,2/5,1/11")
    lines = out.strip().split("\n")
    assert lines[0] == "knot,type,slope,twist,sheets,euler,boundary_components,essential,seifert"
    assert all(line.count(",") >= 8 for line in lines[1:])


def test_output_is_deterministic(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "enumerate", "--csv", "-1/2,2/5,1/13")
        outs.add(out)
    assert len(outs) == 1


def test_verify_family_single_row(capsys):
    code, out, _ = run_cli(capsys, "verify-family", "--from", "11")
    assert code == 0
    assert "n=11 PASS" in out
    assert "slopes=200/11,37/2" in out
    assert "gap=7/22" in out
    assert "seifert_twist=-18" in out


def test_verify_family_range_and_gaps(capsys):
    code, out, _ = run_cli(capsys, "verify-family", "--json", "--from", "11", "--to", "15")
    assert code == 0
    rows = json.loads(out)
    assert [row["gap"] for row in rows] == ["7/22", "7/39", "7/60"]
    assert all(row["pass"] for row in rows)


def test_verify_family_failure_exit_code(capsys, monkeypatch):
    import montesinos.cli as cli_module

    real = cli_module.verify_family_row

    def broken(n, cap):
        row = dict(real(n, cap))
        row["pass"] = False
        row["failures"] = row["failures"] + ["slope_small"]
        return row

    monkeypatch.setattr(cli_module, "verify_family_row", broken)
    code, out, _ = run_cli(capsys, "verify-family", "--from", "11")
    assert code == 1
    assert "FAIL" in out and "slope_small" in out


def test_cross_check_mismatch_exit_code(capsys, monkeypatch):
    # a solver that finds nothing: every combination the scan solves mismatches
    monkeypatch.setattr(bruteforce, "solve_endpoints", lambda choices: None)
    code, out, err = run_cli(capsys, "enumerate", "--cross-check", "-1/2,2/5,1/11")
    assert code == 1 and out == ""
    summary = re.fullmatch(r"cross-check: (\d+) combinations, (\d+) mismatches\n", err)
    checked, mismatched = map(int, summary.groups())
    assert checked == 215 and 0 < mismatched < checked


def test_verify_family_csv(capsys):
    code, out, _ = run_cli(capsys, "verify-family", "--csv", "--from", "11", "--to", "13")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,pass,slope_small,slope_big,gap,reference_twist,failures"
    assert lines[1].startswith("11,true,200/11,37/2,7/22,-18")


def test_verify_family_rejects_even_bounds(capsys):
    code, _, err = run_cli(capsys, "verify-family", "--from", "12")
    assert code == 2
    assert "odd" in err
    code, _, _ = run_cli(capsys, "verify-family", "--from", "9")
    assert code == 2


def test_pair_gap_k11(capsys):
    code, out, _ = run_cli(capsys, "pair-gap", "--json", "-1/2,2/5,1/11")
    assert code == 0
    payload = json.loads(out)
    # full enumeration gives a smaller gap than the named pair's 7/22
    assert payload["min_gap"] == "2/11"
    assert payload["pair"] == ["18", "200/11"]
    assert payload["min_gap_decimal"] == "0.181818181818"


def test_pair_gap_k19_names_the_family_pair(capsys):
    code, out, _ = run_cli(capsys, "pair-gap", "--json", "-1/2,2/5,1/19")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_gap"] == "7/114"
    assert payload["pair"] == ["648/19", "205/6"]


def test_pair_gap_json_names_the_parsed_knot(capsys):
    # the raw argument is not echoed: the knot reads as enumerate --json has it
    code, out, _ = run_cli(capsys, "pair-gap", "--json", "2/4, 1/3,1/5")
    assert code == 0
    assert json.loads(out)["knot"] == "1/2,1/3,1/5"
    code, out, _ = run_cli(capsys, "enumerate", "--json", "2/4, 1/3,1/5")
    assert code == 0
    assert {report["knot"] for report in json.loads(out)} == {"1/2,1/3,1/5"}


def test_pair_gap_no_pair(capsys, monkeypatch):
    # no real knot here yields fewer than two slopes; stub the report list
    import montesinos.cli as cli_module

    real = cli_module._knot_reports

    def only_first(spec, include, cap, dedupe):
        knot, reports = real(spec, include, cap, dedupe)
        return knot, reports[:1]

    monkeypatch.setattr(cli_module, "_knot_reports", only_first)
    code, out, _ = run_cli(capsys, "pair-gap", "--json", "-1/2,2/5,1/11")
    assert code == 0
    assert json.loads(out)["pair"] is None


def test_seifert_command(capsys):
    code, out, _ = run_cli(capsys, "seifert", "-1/2,2/5,1/11")
    assert code == 0
    assert "twist -18" in out
    assert "<inf> - <-1> - <-1/2>" in out


def test_seifert_has_no_cap_option(capsys):
    # the Seifert search enumerates no combinations, so no cap applies
    with pytest.raises(SystemExit) as exc:
        main(["seifert", "--cap", "5", "-1/2,2/5,1/11"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pair-gap", "seifert"])
def test_csv_is_not_offered_where_nothing_writes_it(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--csv", "-1/2,2/5,1/11"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --csv" in capsys.readouterr().err


def test_pair_gap_has_no_all_types_option(capsys):
    # every type II twist is a type III twist, so type II adds no slope to a pair
    with pytest.raises(SystemExit) as exc:
        main(["pair-gap", "--all-types", "-1/2,2/5,1/19"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "unrecognized arguments: --all-types" in captured.err


def test_default_enumerate_builds_no_type_II_report(capsys, monkeypatch):
    import montesinos.surfaces as surfaces_module

    real = surfaces_module.build_report
    built = Counter()

    def counted(system, reference_twist, seifert):
        built[system.system_type] += 1
        return real(system, reference_twist, seifert)

    monkeypatch.setattr(surfaces_module, "build_report", counted)
    code, _, _ = run_cli(capsys, "enumerate", "3/7,-5/13,8/21,13/34")
    assert code == 0
    assert built == {"I": 80, "III": 945}
    code, out, _ = run_cli(capsys, "enumerate", "--all-types", "--json", "3/7,-5/13,8/21,13/34")
    assert code == 0
    assert Counter(r["type"] for r in json.loads(out)) == {"I": 80, "II": 925, "III": 945}


def test_seifert_json(capsys):
    code, out, _ = run_cli(capsys, "seifert", "--json", "-1/2,2/5,1/13")
    payload = json.loads(out)
    assert payload["twist"] == "-22"
    assert payload["type"] == "III"
    assert len(payload["paths"]) == 3


def test_enumerate_deep_tangle(capsys):
    # a 1001-edge path: deeper than the default recursion limit
    code, out, _ = run_cli(capsys, "enumerate", "-1/2,2/5,1/1001")
    assert code == 0
    slopes = [line.split()[0] for line in out.splitlines()[1:] if " I " in line]
    assert "2000000/1001" in slopes and "993007/497" in slopes


def test_internal_invariant_exit_code(capsys, monkeypatch):
    import montesinos.cli as cli_module
    import montesinos.surfaces as surfaces_module
    from montesinos.surfaces import IntegrityError
    from montesinos.systems import DegenerateSystemError

    errors = (IntegrityError("non-integral Euler characteristic 1/2"), DegenerateSystemError("degenerate"))
    for error in errors:

        def broken(systems, reference, error=error):
            raise error

        monkeypatch.setattr(surfaces_module, "build_reports", broken)
        code, out, err = run_cli(capsys, "enumerate", "-1/2,2/5,1/11")
        assert code == cli_module.EXIT_INTERNAL == 4
        assert out == ""
        assert err == f"error: {error}\n"


def test_reference_missing_from_the_systems_exits_4(capsys, monkeypatch):
    import montesinos.surfaces as surfaces_module

    other = systems_module.find_seifert_system(MontesinosKnot.parse("-1/2,2/5,1/13"))
    monkeypatch.setattr(surfaces_module, "find_seifert_system", lambda knot: other)
    code, out, err = run_cli(capsys, "enumerate", "-1/2,2/5,1/11")
    assert code == 4
    assert out == ""
    assert err == "error: the Seifert reference matches 0 of the enumerated systems, not one\n"


def test_out_of_memory_exits_3_without_traceback(capsys, monkeypatch):
    import montesinos.cli as cli_module

    def exhausted(tangle):
        raise MemoryError

    monkeypatch.setattr(systems_module, "enumerate_skeletons", exhausted)
    code, out, err = run_cli(capsys, "enumerate", "-1/2,2/5,1/11")
    assert code == cli_module.EXIT_CAP == 3
    assert out == ""
    assert err == "error: out of memory\n"


@pytest.mark.parametrize("command", ["enumerate", "pair-gap", "seifert"])
def test_no_reference_exit_code(capsys, command):
    import montesinos.cli as cli_module

    code, out, err = run_cli(capsys, command, "1/3,1/3,1/3")
    assert code == cli_module.EXIT_NO_REFERENCE == 5
    assert out == ""
    assert err.startswith("error: no Seifert reference")
    assert "Traceback" not in err


def test_cross_check_flag(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--cross-check", "-1/2,2/5,1/11")
    assert code == 0
    assert "0 mismatches" in err


@pytest.mark.parametrize("m_max", [3, 4, 5])
def test_cross_check_expects_only_weights_the_scan_reaches(m_max):
    # one solve has weights with denominators 1, 2 and 3: each is at most
    # m_max, but the scan's common totals reach them only from m = lcm = 6
    assert bruteforce.cross_check(MontesinosKnot.parse("1/6,-10/9,-7/9,23/13"), m_max)[2] == []


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "montesinos.cli", "verify-family", "--from", "11"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "n=11 PASS" in proc.stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the records are named tuples and slots classes, so the import that
    # every command pays pulls in none of dataclasses' own imports
    probe = (
        "import sys, montesinos.cli\n"
        "montesinos.cli.build_parser()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_early_stdout_close_exits_141_without_traceback():
    # about 97 kB of JSON, more than a pipe buffers, so the child is still
    # writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "montesinos.cli", "enumerate", "--json", "--all-types", "3/7,-5/13,8/21"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 141
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, calls",
    [
        (("enumerate", "-1/2,2/5,1/11"), 3),
        (("verify-family", "--from", "11", "--to", "13"), 6),
        (("seifert", "-1/2,2/5,1/11"), 0),  # the parity walk builds no tree
    ],
)
def test_skeletons_are_enumerated_once_per_tangle(capsys, monkeypatch, argv, calls):
    real = systems_module.enumerate_skeletons
    tangles = []

    def counted(tangle):
        tangles.append(tangle)
        return real(tangle)

    monkeypatch.setattr(systems_module, "enumerate_skeletons", counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(tangles) == calls


# Runs one command line and prints its peak RSS (ru_maxrss, in kB) on stderr.
RSS_PROBE = (
    "import resource, sys\n"
    "from montesinos.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(code)\n"
)
# Starts the probe from a small interpreter: exec keeps the peak RSS of the
# process it replaces in ru_maxrss, so a probe exec'd straight from the test
# process would report this process's peak, not its own.
RSS_LAUNCHER = (
    "import subprocess, sys\n"
    "sys.exit(subprocess.run([sys.executable, '-c'] + sys.argv[1:]).returncode)\n"
)


@pytest.mark.parametrize(
    "argv",
    [("enumerate", "-1/2,2/5,1/5001"), ("seifert", "--json", "-1/2,2/5,1/5001")],
)
def test_deep_tangle_runs_in_linear_memory(argv):
    # a 5001-edge chain: skeletons as tree nodes keep this O(L); prefix
    # tuples took O(L^2), over 110 MB
    proc = subprocess.run(
        [sys.executable, "-c", RSS_LAUNCHER, RSS_PROBE, *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "seifert":
        assert json.loads(proc.stdout)["twist"] == "-9998"
    else:
        seifert_rows = [line.split() for line in proc.stdout.splitlines() if line.endswith(" yes")]
        assert [row[2] for row in seifert_rows] == ["-9998"]
    peak_kb = int(proc.stderr.split()[-1])
    assert peak_kb < 30 * 1024, f"peak RSS {peak_kb} kB"
