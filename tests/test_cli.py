import argparse
import io
import time
from dataclasses import replace

import pytest

from weylkit import checks, cli, fourier, weyl


def run_cli(argv):
    import contextlib
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_the_config_flag_is_a_usage_error(capsys):
    # every input is a flag of its command; argparse refuses the rest
    with pytest.raises(SystemExit) as info:
        cli.main(["--config", "run.cfg", "verify"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: weylkit ")


def test_verify_single_suite_tsv():
    code, out, err = run_cli(["verify", "--suite", "coxeter"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check_id\tanchor\tstatus\twitness"
    assert len(lines) == 2
    fields = lines[1].split("\t")
    assert fields[0] == "C1"
    assert fields[1] == "quotient-coxeter"
    assert fields[2] == "PASS"


def test_verify_output_is_deterministic():
    code1, out1, _ = run_cli(["verify", "--suite", "coxeter",
                              "--suite", "witt"])
    code2, out2, _ = run_cli(["verify", "--suite", "coxeter",
                              "--suite", "witt"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_weyl_subcommand():
    code, out, _ = run_cli(["weyl", "--type", "C2", "--j", "1"])
    assert code == 0
    assert "coxeter_row" in out
    assert "generator" in out


def test_weyl_builds_the_generators_once(monkeypatch):
    calls = []
    build = weyl.min_coset_generators

    def counted(datum, J):
        calls.append(J)
        return build(datum, J)

    monkeypatch.setattr(weyl, "min_coset_generators", counted)
    code, _, _ = run_cli(["weyl", "--type", "C2", "--j", "1"])
    assert code == 0
    assert len(calls) == 1


def test_fourier_and_c5_build_each_m_set_once(monkeypatch):
    calls = []
    m_set = fourier.m_set
    monkeypatch.setattr(fourier, "m_set",
                        lambda gamma: calls.append(gamma) or m_set(gamma))
    code, _, _ = run_cli(["fourier", "--group", "z2xz2"])
    assert code == 0
    assert len(calls) == 1
    checks._c5_fourier()
    assert len(calls) == 1 + 2  # Z/2 and S3


def test_cells_subcommand():
    code, out, _ = run_cli(["cells", "--type", "A1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "point\tcell\ttorus_order\ttorus_coords"
    assert len(lines) == 14  # header + 13 grid points


def test_fourier_subcommand():
    code, out, _ = run_cli(["fourier", "--group", "z2"])
    assert code == 0
    assert out.count("\n") == 5  # header + 4 rows


def test_unknown_fourier_group_is_a_usage_error():
    code, out, err = run_cli(["fourier", "--group", "zz"])
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: unknown group 'zz'")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["cells", "reps"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_a_non_positive_denominator_is_a_usage_error(command, value):
    code, out, err = run_cli([command, "--denominator", value])
    assert code == 2
    assert out == ""
    assert err == f"usage error: denominator={value} is not positive\n"


def test_pgl2_subcommand():
    code, out, _ = run_cli(["pgl2", "--q", "2",
                            "--matrix", "0,1;e,0", "--op", "all"])
    assert code == 0
    assert "I2" in out
    assert "discriminant_valuation\t1" in out
    assert "fixed_point_count\t2" in out


@pytest.mark.parametrize("op", ["class", "disc", "count", "all"])
def test_pgl2_tests_q_for_primality_once(monkeypatch, op):
    # parse_matrix tests q once for all four entries, the command reads
    # its verdict, and no scalar formed after that tests it again
    from weylkit import errors
    calls = []
    least_prime_factor = errors.least_prime_factor
    monkeypatch.setattr(errors, "least_prime_factor",
                        lambda k: calls.append(k) or least_prime_factor(k))
    code, out, _ = run_cli(["pgl2", "--q", "3", "--op", op])
    assert code == 0
    assert calls == [3]


def test_witt_enum_tests_p_for_primality_once(monkeypatch):
    # enumerate_X_n's gate decides p once; the command keeps only its
    # own p = 2 refusal
    from weylkit import errors
    calls = []
    least_prime_factor = errors.least_prime_factor
    monkeypatch.setattr(errors, "least_prime_factor",
                        lambda k: calls.append(k) or least_prime_factor(k))
    code, out, _ = run_cli(["witt", "--enum", "--p", "3", "--n", "1"])
    assert code == 0
    assert calls == [3]


@pytest.mark.parametrize("p, m, code, calls", [
    ("3", "2", 0, 3),
    ("11", "2", 0, 3),
    # the pair budget refuses after the one trial division
    ("999999999989", "1", 1, 1),
])
def test_witt_tests_p_for_primality_once(monkeypatch, p, m, code, calls):
    # oracle_check gates p once and builds its images without the gate;
    # witt_one and from_integer each gate once more
    from weylkit import errors
    seen = []
    least_prime_factor = errors.least_prime_factor
    monkeypatch.setattr(errors, "least_prime_factor",
                        lambda k: seen.append(k) or least_prime_factor(k))
    assert run_cli(["witt", "--p", p, "--m", m])[0] == code
    assert seen == [int(p)] * calls


def test_witt_subcommand():
    code, out, _ = run_cli(["witt", "--p", "3", "--m", "2"])
    assert code == 0
    assert "oracle\tPASS" in out
    assert "p_image\t(0,1)" in out


def test_witt_enum_subcommand():
    code, out, _ = run_cli(["witt", "--enum", "--p", "3", "--n", "1"])
    assert code == 0
    assert "count\t5" in out
    assert "direct_count\t5" in out


@pytest.mark.parametrize("argv", [
    ["witt", "--enum", "--p", "0"],
    ["witt", "--enum", "--p", "2"],
    ["witt", "--enum", "--p", "9"],
    ["witt", "--enum", "--p", "-3"],
    ["witt", "--enum", "--n", "-1"],
    ["witt", "--p", "0"],
    ["witt", "--p", "4"],
    ["witt", "--m", "0"],
    ["witt", "--m", "-1"],
    ["witt", "--p", "3", "--m", "2", "--n", "5"],
    ["witt", "--n", "1"],
    ["witt", "--enum", "--p", "3", "--m", "2"],
])
def test_witt_bad_values_are_usage_errors(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("p, m, message", [
    # a p that is not a prime wins over a bad m
    ("4", "0", "p=4 is not a prime"),
    ("1", "2", "p=1 is not a prime"),
    ("-3", "2", "p=-3 is not a prime"),
    ("3", "0", "m=0 is not positive"),
    ("2", "0", "m=0 is not positive"),
])
def test_witt_oracle_usage_lines(p, m, message):
    code, out, err = run_cli(["witt", "--p", p, "--m", m])
    assert code == 2
    assert out == ""
    assert err == f"usage error: {message}\n"


_DIGITS_400 = str(10 ** 399 + 1)
_TREE = "lattice tree walk of 1 + 4(3^{} - 1)/2 vertices"
_ORACLE = "Witt oracle of {}^{} pairs of {}^{} elements"
_WALK = "fixed-point walk to word length 2 of {} nodes"
_GRID = "grid to denominator {} of {} candidate points"
_TRIAL = "a {}-bit integer to decide by trial division"


# (argv, seconds, work, limit): each refusal within its own time bound
_PAST_THE_BUDGET = [
    # 3^8 = 6,561 vertices at distance 8 alone fit; the ball's 13,121 do
    # not, and the walk is refused before its first vertex
    (["witt", "--enum", "--p", "3", "--n", "8"], 1, _TREE.format(8), 10000),
    (["witt", "--enum", "--p", "3", "--n", "9"], 1, _TREE.format(9), 10000),
    (["witt", "--enum", "--p", "3", "--n", "1000000000000"], 1,
     _TREE.format(1000000000000), 10000),
    (["witt", "--p", "3", "--m", "6"], 5, _ORACLE.format(3, 12, 3, 6),
     200000),
    (["witt", "--p", "2", "--m", "9"], 5, _ORACLE.format(2, 18, 2, 9),
     200000),
    (["witt", "--p", "2", "--m", "1000000000000"], 5,
     _ORACLE.format(2, 2000000000000, 2, 1000000000000), 200000),
    (["witt", "--p", "999999999989", "--m", "1"], 5,
     _ORACLE.format(999999999989, 2, 999999999989, 1), 200000),
    # level 2 of the walk at q = 10007 has about 2 * 10^8 nodes
    (["pgl2", "--q", "317", "--op", "count"], 1, _WALK.format(201613),
     200000),
    (["pgl2", "--q", "10007", "--op", "count"], 1, _WALK.format(200300113),
     200000),
    (["pgl2", "--q", _DIGITS_400], 1, _TRIAL.format(1326), 10 ** 12),
    (["witt", "--p", _DIGITS_400], 1, _TRIAL.format(1326), 10 ** 12),
    (["witt", "--enum", "--p", _DIGITS_400], 1, _TRIAL.format(1326),
     10 ** 12),
    # 1000000016000000063 is 1000000007 * 1000000009, whose least factor
    # is past 10^6
    (["pgl2", "--q", "1000000016000000063"], 1, _TRIAL.format(60), 10 ** 12),
]


@pytest.mark.parametrize(
    "argv, seconds, work, limit", _PAST_THE_BUDGET,
    ids=[" ".join(case[0]).replace(_DIGITS_400, "10^399+1")
         for case in _PAST_THE_BUDGET])
def test_a_command_past_its_budget_stops_with_the_gates_one_line(
        argv, seconds, work, limit):
    # every budget refusal is the one line of errors.charge
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < seconds
    assert (code, out, err) == (
        1, "", f"error: {work} exceeds the budget of {limit}\n")


# the work each grid command is refused for, against a limit of 20000
_GRID_WORK = {
    ("reps", 100): "induced-module grid to denominator 100, which would"
                   " weigh 343400 (grid candidates times their"
                   " denominators),",
    ("cells", 800): _GRID.format(800, 321200),
    ("cells", 199): _GRID.format(199, 20099),
}


@pytest.mark.parametrize("command,denominator", [
    ("reps", 100), ("cells", 800), ("cells", 199)])
def test_a_grid_over_the_work_budget_fails_fast(command, denominator):
    start = time.perf_counter()
    code, out, err = run_cli([command, "--type", "A1",
                              "--denominator", str(denominator)])
    assert time.perf_counter() - start < 5
    work = _GRID_WORK[command, denominator]
    assert (code, out, err) == (
        1, "", f"error: {work} exceeds the budget of 20000\n")


def test_reps_at_denominator_20_stays_within_the_budget():
    code, out, err = run_cli(["reps", "--type", "A1", "--denominator", "20"])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 132


@pytest.mark.parametrize("argv", [
    ["pgl2", "--q", "0"],
    ["pgl2", "--q", "4"],
    ["pgl2", "--matrix", "garbage"],
    ["pgl2", "--matrix", "1@x,0;0,1"],
    ["pgl2", "--op", "count", "--matrix", "1,0;0,1"],
    ["pgl2", "--op", "disc", "--matrix", "1,0;0,1"],
    ["pgl2", "--q", "3", "--matrix", "1,1;1,1"],
    ["pgl2", "--q", "3", "--matrix", "0,0;0,0"],
    ["pgl2", "--q", "3", "--matrix", "e,0;0,0"],
    ["pgl2", "--q", "1"],
    ["pgl2", "--q", "6"],
])
def test_pgl2_bad_values_are_usage_errors(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("q", [4, 9])
def test_a_q_that_is_a_prime_power_but_not_a_prime_exits_2(q):
    # pgl2 works over prime fields only
    code, out, err = run_cli(["pgl2", "--q", str(q)])
    assert code == 2
    assert out == ""
    assert err == f"usage error: q={q} is not a prime\n"


def test_unexpected_check_error_is_a_fail_row(monkeypatch):
    def broken():
        raise ZeroDivisionError("singular matrix")

    registry = tuple(
        replace(c, run=broken) if c.check_id == "C5" else c
        for c in checks.REGISTRY)
    monkeypatch.setattr(checks, "REGISTRY", registry)
    code, out, _ = run_cli(["verify", "--suite", "coxeter",
                            "--suite", "fourier"])
    assert code == 1
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert [r[:3] for r in rows] == [["C1", "quotient-coxeter", "PASS"],
                                     ["C5", "fourier-matrix", "FAIL"]]
    assert rows[1][3] == "internal error ZeroDivisionError: singular matrix"


@pytest.mark.parametrize("command", ["weyl", "cells", "reps"])
@pytest.mark.parametrize("label", ["Z9", "A99"])
def test_bad_type_label_is_a_usage_error(command, label):
    code, out, err = run_cli([command, "--type", label])
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["weyl", "cells", "reps"])
def test_non_integer_node_is_a_usage_error(command):
    code, out, err = run_cli([command, "--j", "x"])
    assert code == 2
    assert out == ""
    assert err == "usage error: --j needs integer node indices, got 'x'\n"


@pytest.mark.parametrize("argv", [
    ["weyl", "--type", "C2", "--j", "7"],
    ["weyl", "--type", "C2", "--j", "1 -1"],
    ["cells", "--type", "A1", "--j", "5"],
    ["reps", "--type", "A1", "--j", "2"],
])
def test_out_of_range_node_is_a_usage_error(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: --j node ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["cells", "--type", "A1", "--j", "0"],
     "grid sampling needs a rank-1 configuration"),
    (["reps", "--type", "A1", "--j", "1"],
     "grid sampling needs a rank-1 configuration"),
    (["cells", "--type", "C2"], "grid sampling needs a rank-1 configuration"),
    (["weyl", "--type", "C2", "--j", "0 1 2"],
     "J must be a proper node subset"),
    (["cells", "--type", "A1", "--j", "0 1"],
     "J must be a proper node subset"),
    (["reps", "--type", "A1", "--j", "1 0"],
     "J must be a proper node subset"),
    (["weyl", "--type", "C2", "--j", "0 1"],
     "the quotient Coxeter matrix needs J to leave at least two nodes out"),
    (["weyl", "--type", "A1", "--j", "0"],
     "the quotient Coxeter matrix needs J to leave at least two nodes out"),
    (["cells", "--type", "A2", "--j", "0"],
     "J admits no minimal-coset generator ss_k for k in (1, 2)"),
    (["reps", "--type", "A2", "--j", "0"],
     "J admits no minimal-coset generator ss_k for k in (1, 2)"),
    (["weyl", "--type", "A3", "--j", "1 2"],
     "J admits no minimal-coset generator ss_k for k in (0, 3)"),
])
def test_unusable_node_subset_is_a_usage_error(argv, message):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_registry_covers_all_suites():
    assert set(checks.SUITES) == {c.suite for c in checks.REGISTRY}
    ids = [c.check_id for c in checks.REGISTRY]
    assert ids == [f"C{i}" for i in range(1, 12)]


# For every command: a valid run, -h, an unknown flag, a bad flag value
# and an extra positional; then the argv that name no command.
_COMMAND_CASES = {
    "verify": (["--suite", "coxeter"], ["-h"], ["--bogus"],
               ["--suite", "bogus"], ["extra"]),
    "weyl": (["--type", "G2", "--j", "1"], ["-h"], ["--bogus"], ["--j"],
             ["extra"]),
    "cells": (["--denominator", "12"], ["-h"], ["--bogus"],
              ["--denominator", "x"], ["extra"]),
    "reps": (["--type", "C2", "--j", "0"], ["-h"], ["--bogus"],
             ["--denominator", "1.5"], ["extra"]),
    "fourier": (["--group", "s3"], ["-h"], ["--bogus"], ["--group"],
                ["extra"]),
    "pgl2": (["--q", "3", "--op", "count"], ["-h"], ["--bogus"],
             ["--op", "bogus"], ["extra"]),
    "witt": (["--enum", "--p", "3", "--n", "1"], ["-h"], ["--bogus"],
             ["--p", "x"], ["extra"]),
}
# Prefixes of a command's flags, which no parser expands.
_ABBREVIATIONS = [["witt", "--e"], ["witt", "--enu"], ["pgl2", "--m", "X"],
                  ["cells", "--den", "4"]]
_PARITY = ([[name, *rest] for name, cases in _COMMAND_CASES.items()
            for rest in cases]
           + _ABBREVIATIONS + [["pgl2", "--matrix=0,1;e,0"]]
           + [["-h"], [], ["bogus"], ["-h", "witt"]])


def _parse(parser, argv, capsys):
    """The Namespace parser gives argv, or its SystemExit code with what
    it wrote."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return (exc.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", _PARITY,
                         ids=lambda argv: " ".join(argv) or "no argument")
def test_the_parser_main_builds_parses_as_the_full_parser(argv, capsys):
    command = argv[0] if argv else None
    assert _parse(cli.build_parser(command), argv, capsys) \
        == _parse(cli.build_parser(), argv, capsys)


def test_a_command_builds_only_its_own_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert cli.main(["witt", "--enum", "--p", "3", "--n", "1"]) == 0
    assert built == ["weylkit", "weylkit witt"]
    built.clear()
    with pytest.raises(SystemExit) as info:
        cli.main(["-h"])
    assert info.value.code == 0
    assert len(built) == 1 + 7
    # the one-command usage line still names all seven commands
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["witt", "--bogus"])
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith(
        "usage: weylkit [-h] {verify,weyl,cells,reps,fourier,pgl2,witt} ...\n")


@pytest.mark.parametrize("argv", _ABBREVIATIONS, ids=" ".join)
def test_an_abbreviated_flag_is_an_unknown_flag(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        "usage: weylkit [-h] {verify,weyl,cells,reps,fourier,pgl2,witt} ...\n")
    assert err.endswith(
        f"error: unrecognized arguments: {' '.join(argv[1:])}\n")


def test_a_flag_joined_to_its_value_is_the_flag():
    assert run_cli(["pgl2", "--q", "3", "--matrix=e,1+e;e+e2,e2"]) \
        == run_cli(["pgl2", "--q", "3", "--matrix", "e,1+e;e+e2,e2"])
